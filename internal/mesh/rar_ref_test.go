package mesh

// RARRef is the random-access read as it stood before the bank went thin:
// its sort bank carries every record's value through both sorts and the
// copy-scan. It is kept as the reference the differential test
// (rar_diff_test.go) drives the production RAR against, changed only to
// sort by the same key words, and is exported only to that external test
// package.
func RARRef[K ~int32, V any](v View,
	record func(local int) (key K, val V, ok bool),
	request func(local int) (key K, ok bool),
	deliver func(local int, val V, found bool),
) {
	type item struct {
		key    K
		isReq  bool
		found  bool
		val    V
		origin int32
	}
	v = v.begin(OpRAR)
	m := v.Size()
	items := Checkout[item](v.m, 2*m)[:0]
	for i := 0; i < m; i++ {
		if k, val, ok := record(i); ok {
			items = append(items, item{key: k, val: val, found: true, origin: int32(i)})
		}
		if k, ok := request(i); ok {
			items = append(items, item{key: k, isReq: true, origin: int32(i)})
		}
	}
	// Audit oracle, built from the pristine bank before any sort can be
	// faulted: each request origin expects the value of the last record
	// collected with its key (matching the stable sort + copy-scan).
	var expect map[int32]*rarExpect[V]
	if v.m.audit {
		recs := make(map[K]rarExpect[V], len(items))
		for _, it := range items {
			if !it.isReq {
				recs[it.key] = rarExpect[V]{val: it.val, found: true}
			}
		}
		expect = make(map[int32]*rarExpect[V], len(items))
		for _, it := range items {
			if it.isReq {
				e := recs[it.key]
				expect[it.origin] = &rarExpect[V]{val: e.val, found: e.found}
			}
		}
	}
	sortSlice(v, "RAR", items, 2, func(it item) uint64 { return bankWord(it.key, it.isReq) })
	scanSlice(v, "RAR", items, 2,
		func(i int) bool { return i == 0 || items[i].key != items[i-1].key },
		func(a, b item) item {
			if b.isReq {
				b.val = a.val
				b.found = a.found
			}
			return b
		})
	// Keep only the requests, route them back to their origins.
	reqs := items[:0]
	for _, it := range items {
		if it.isReq {
			reqs = append(reqs, it)
		}
	}
	sortSlice(v, "RAR", reqs, 1, func(it item) uint64 { return uint64(it.origin) })
	// Delivery sweep, with optional reply-fault injection: a dropped reply
	// is skipped, a duplicated reply lands a second time at another
	// request's origin.
	drop, dupSrc, dupDst := -1, -1, -1
	if inj := v.m.inj; inj != nil && len(reqs) > 0 {
		if d, ok := inj.DropReply(len(reqs)); ok && d >= 0 && d < len(reqs) {
			drop = d
		}
		if s, d, ok := inj.DuplicateReply(len(reqs)); ok &&
			s >= 0 && s < len(reqs) && d >= 0 && d < len(reqs) {
			dupSrc, dupDst = s, d
		}
	}
	for i, it := range reqs {
		if i == drop {
			continue
		}
		if expect != nil {
			auditDelivery(v, "RAR", expect, it.origin, it.val, it.found)
		}
		deliver(int(it.origin), it.val, it.found)
	}
	if dupSrc >= 0 {
		it, dst := reqs[dupSrc], reqs[dupDst]
		if expect != nil {
			auditDelivery(v, "RAR", expect, dst.origin, it.val, it.found)
		}
		deliver(int(dst.origin), it.val, it.found)
	}
	if expect != nil {
		auditAllDelivered(v, "RAR", expect)
	}
	Release(v.m, items)
	v.charge(OpRAR, 1)
}
