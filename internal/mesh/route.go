package mesh

import (
	"fmt"
	"reflect"
)

// Data movement operations: random-access read, routing, concentration, and
// block replication. These are the "standard mesh operations" the paper
// composes; all are built from sorts and scans so their charges follow from
// the primitive cost formulas. Item banks (the 2m-record sort banks of
// RAR/RAW, routing move lists) are checked out of the mesh's scratch arena
// and released on return, so the steady-state multistep loop allocates
// nothing. RAR's bank and the routing move lists are thin: they carry keys
// and processor indices, and each record is read once, where it lands.
//
// Scratch-slice variants (SortScratch, ScanScratch) model a bank of perProc
// registers per processor — perProc must remain O(1), which is how the
// physical machine sorts 2m items on m processors (two words per link per
// transposition round, doubling the phase time).

// SortScratch stable-sorts xs by key, a scratch bank holding up to perProc
// records per processor of the view, charging perProc row-major sorts.
func SortScratch[T any](v View, xs []T, perProc int, key func(T) uint64) {
	v = v.begin(OpSort)
	sortSlice(v, "SortScratch", xs, perProc, key)
}

// ScanScratch performs a segmented inclusive scan over scratch bank xs in
// index order, restarting wherever head reports true, charging perProc
// scans.
func ScanScratch[T any](v View, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	v = v.begin(OpScan)
	scanSlice(v, "ScanScratch", xs, perProc, head, op)
}

// ScanScratchRev is ScanScratch running in reverse index order: segment
// heads are tested in reverse order (head(i) true restarts the scan at i,
// moving from high indices to low). Mesh scans run equally well along the
// reversed snake; same cost.
func ScanScratchRev[T any](v View, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	v = v.begin(OpScan)
	scanSliceRev(v, "ScanScratchRev", xs, perProc, head, op)
}

// move pairs a destination with the index of the record routed there;
// routings sort their move list by destination, which is also what detects
// collisions (adjacent duplicates after the sort). The list carries the
// record's index, not the record: the record is read once, where it lands.
type move struct {
	dest, src int32
}

// byDest is the sort word of a move list: the destination.
func byDest(mv move) uint64 { return uint64(mv.dest) }

// collectMoves builds the pooled move list for Route/RouteTo from r's
// cells and validates destinations. The caller releases it.
func collectMoves[T any](v View, r *Reg[T], sel func(local int, val *T) (dest int, ok bool), opName string) []move {
	m := v.Size()
	moves := Checkout[move](v.m, m)[:0]
	rows, w := v.rowWalk()
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		for c := range cells {
			i := row*w + c
			if d, ok := sel(i, &cells[c]); ok {
				if d < 0 || d >= m {
					panic("mesh: " + opName + " destination out of view")
				}
				moves = append(moves, move{int32(d), int32(i)})
			}
		}
	}
	sortSlice(v, opName, moves, 1, byDest)
	for i := 1; i < len(moves); i++ {
		if moves[i].dest == moves[i-1].dest {
			panic("mesh: " + opName + " destination collision")
		}
	}
	return moves
}

// RouteTo moves selected records of src into computed destination cells of
// dst (a different register: each record is read from src where it lands,
// so writing dst must not change src). sel reads each cell of src and must
// not write through val. Destinations must be distinct; cells of dst that
// receive no record are untouched. Cost: one sort.
func RouteTo[T any](v View, src, dst *Reg[T], sel func(local int, val *T) (dest int, ok bool)) {
	v = v.begin(OpRoute)
	if src == dst {
		panic("mesh: RouteTo source and destination are one register")
	}
	moves := collectMoves(v, src, sel, "RouteTo")
	for _, mv := range moves {
		dst.data[v.Global(int(mv.dest))] = src.data[v.Global(int(mv.src))]
	}
	Release(v.m, moves)
	v.charge(OpRoute, 1)
}

// RouteScratch routes the items of src into a scratch bank of dstLen cells
// (≤ perProc per processor): src[i] lands at dest(i). Destinations must be
// distinct; with an honest sort a collision panics (equal destinations are
// adjacent after the destination sort). occupied reports which cells
// received an item. The returned slices come from the arena — the caller
// must hand both back with Release when done with them. Cost: perProc sorts.
//
// The routing executes as a move-list sort by destination through runSort,
// so the fault-injection and audit seams cover it like every other charged
// sort (a lying comparator or corrupted move record trips the audit's
// reference-sort comparison before the scatter).
func RouteScratch[T any](v View, src []T, dstLen, perProc int, dest func(i int) int) (dst []T, occupied []bool) {
	v = v.begin(OpRoute)
	if perProc < 1 {
		perProc = 1
	}
	if dstLen > perProc*v.Size() {
		panic("mesh: RouteScratch overflow")
	}
	moves := Checkout[move](v.m, len(src))[:0]
	for i := range src {
		d := dest(i)
		if d < 0 || d >= dstLen {
			panic("mesh: RouteScratch destination out of range")
		}
		moves = append(moves, move{int32(d), int32(i)})
	}
	runSort(v, "RouteScratch", moves, byDest)
	dst = Checkout[T](v.m, dstLen)
	occupied = Checkout[bool](v.m, dstLen)
	clear(dst)
	clear(occupied)
	for i, mv := range moves {
		if i > 0 && mv.dest == moves[i-1].dest {
			panic("mesh: RouteScratch destination collision")
		}
		dst[mv.dest] = src[mv.src]
		occupied[mv.dest] = true
	}
	Release(v.m, moves)
	v.charge(OpRoute, int64(perProc)*v.rowMajorSortCost())
	return dst, occupied
}

// bankWord is the sort word of a RAR/RAW bank item: the key, then the item
// whose second flag is false (the record) before the one whose flag is true.
func bankWord[K ~int32](key K, second bool) uint64 {
	w := uint64(uint32(key)^signBit) << 1
	if second {
		w |= 1
	}
	return w
}

// rarExpect is the audit-mode oracle record for one RAR request (or one RAW
// record cell): the value the delivery sweep must hand back, and how many
// times it has been delivered so far.
type rarExpect[V any] struct {
	val   V
	found bool
	n     int
}

// auditDelivery cross-checks one delivery against the oracle expectation
// map and the delivered-exactly-once rule. Shared by RAR and RAW.
func auditDelivery[V any](v View, op string, expect map[int32]*rarExpect[V], origin int32, val V, found bool) {
	e := expect[origin]
	if e == nil {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("delivery to processor %d, which expects none", origin)})
	}
	e.n++
	if e.n > 1 {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered to %d times", origin, e.n)})
	}
	if found != e.found {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered found=%v, oracle says %v", origin, found, e.found)})
	}
	if found && !reflect.DeepEqual(val, e.val) {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered a value differing from the oracle", origin)})
	}
}

// auditAllDelivered verifies that every expected delivery happened.
func auditAllDelivered[V any](v View, op string, expect map[int32]*rarExpect[V]) {
	for origin, e := range expect {
		if e.n == 0 {
			panic(&AuditError{Geom: v.m.geometry(), Op: op,
				Detail: fmt.Sprintf("reply for processor %d was never delivered (dropped)", origin)})
		}
	}
}

// RAR is the random-access read of Nassimi–Sahni: every processor may issue
// one keyed request, every processor may hold one keyed record, and each
// request receives the value of the record with its key. Concurrent reads
// of one record by many requests are supported (the duplication happens in
// the segmented copy-scan, not by magic). Record keys are expected to be
// unique within the view (the algorithms guarantee this; if violated, the
// last record in sorted order wins). Requests whose key has no record
// receive found=false and a nil value.
//
// Mesh realization charged here: sort the 2m-item bank by (key, records
// first) — one sort word, bankWord(key, isReq); copy-scan record values
// across the requests that follow them; sort the requests back by origin.
// Cost: 1 double-sort + 1 double-scan + 1 single sort.
//
// The bank is thin: a record enters it as its key plus its processor index,
// and the copy-scan copies that index, not the value. value(local) points
// at a record's value where it lies — asked once per delivered request,
// plus once per request for the audit oracle, which copies the value — and
// deliver reads it through that pointer, so the sorted items stay 16 bytes
// for the algorithms' int32 keys however wide V is, and no value is copied
// on its way to deliver. Charges, sort words, scan-head decisions, fault
// consultations and audit verdicts read only keys, flags and indices, so
// they are those of a bank that carries the values. Contract: record values
// must not change during the RAR — deliver must not write through its
// value pointer, nor write the cells value points at.
//
// In audit mode every delivery is cross-checked against a host-side oracle
// built from the pristine item bank, and each pending request must be
// delivered exactly once — which is what detects injected dropped or
// duplicated replies and corrupted bank records.
//
// With no injector installed and audit off, nothing can observe the bank,
// so the host answers the requests by a hash join instead (rarJoin), with
// the same charges, callbacks and deliveries. The bank path above stays the
// definition and runs whenever an injector or the audit is on.
func RAR[K ~int32, V any](v View,
	key func(local int) (K, bool),
	value func(local int) *V,
	request func(local int) (key K, ok bool),
	deliver func(local int, val *V, found bool),
) {
	// src is the local index of the record whose value the item carries:
	// the record itself, or (after the copy-scan) the record a request
	// read; -1 while a request has read nothing.
	type item struct {
		key         K
		isReq       bool
		found       bool
		origin, src int32
	}
	v = v.begin(OpRAR)
	if v.m.inj == nil && !v.m.audit {
		rarJoin(v, key, value, request, deliver)
		return
	}
	m := v.Size()
	items := Checkout[item](v.m, 2*m)[:0]
	for i := 0; i < m; i++ {
		if k, ok := key(i); ok {
			items = append(items, item{key: k, found: true, origin: int32(i), src: int32(i)})
		}
		if k, ok := request(i); ok {
			items = append(items, item{key: k, isReq: true, origin: int32(i), src: -1})
		}
	}
	// Audit oracle, built from the pristine bank before any sort can be
	// faulted: each request origin expects the value of the last record
	// collected with its key (matching the stable sort + copy-scan).
	var expect map[int32]*rarExpect[V]
	if v.m.audit {
		recs := make(map[K]int32, len(items))
		for _, it := range items {
			if !it.isReq {
				recs[it.key] = it.src
			}
		}
		expect = make(map[int32]*rarExpect[V], len(items))
		for _, it := range items {
			if it.isReq {
				e := &rarExpect[V]{}
				if src, ok := recs[it.key]; ok {
					e.val, e.found = *value(int(src)), true
				}
				expect[it.origin] = e
			}
		}
	}
	sortSlice(v, "RAR", items, 2, func(it item) uint64 { return bankWord(it.key, it.isReq) })
	scanSlice(v, "RAR", items, 2,
		func(i int) bool { return i == 0 || items[i].key != items[i-1].key },
		func(a, b item) item {
			if b.isReq {
				b.src = a.src
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
	send := func(origin int32, it item) {
		var val *V
		if it.found {
			val = value(int(it.src))
		}
		if expect != nil {
			var got V
			if val != nil {
				got = *val
			}
			auditDelivery(v, "RAR", expect, origin, got, it.found)
		}
		deliver(int(origin), val, it.found)
	}
	for i, it := range reqs {
		if i != drop {
			send(it.origin, it)
		}
	}
	if dupSrc >= 0 {
		send(reqs[dupDst].origin, reqs[dupSrc])
	}
	if expect != nil {
		auditAllDelivered(v, "RAR", expect)
	}
	Release(v.m, items)
	v.charge(OpRAR, 1)
}

// joinSlot is one slot of rarJoin's open-addressing table: a record key and
// the local index of the last record with that key, plus one (0 marks an
// empty slot, since every int32 is a valid key).
type joinSlot struct {
	key, src1 int32
}

// joinReq is one pending request of rarJoin: its key and its processor.
type joinReq struct {
	key, origin int32
}

// joinProbe returns the slot of a power-of-two table that holds key k, or
// the empty slot where k belongs: Fibonacci hashing to the top bits (shift
// is 32 − log₂ len(table)), then linear probing.
func joinProbe(table []joinSlot, shift int, k int32) *joinSlot {
	mask := uint32(len(table) - 1)
	h := uint32(k) * 0x9E3779B9 >> shift
	for table[h].src1 != 0 && table[h].key != k {
		h = (h + 1) & mask
	}
	return &table[h]
}

// rarJoin is RAR with no injector and audit off. It makes the callbacks and
// charges of the bank path in the same order, so steps, answers and budget
// and cancel verdicts are those of the bank path:
//   - one walk of the view calls key(i) then request(i) for i = 0…m−1;
//   - a later record with an equal key replaces the earlier one, as the
//     stable sort and copy-scan let the last record in index order win;
//   - the double sort, the double scan and the sort back are charged as
//     three charges before the first delivery, and one step after the last;
//   - requests are delivered in ascending origin order, value(src) is
//     called once per found request, and a missing key delivers nil with
//     found == false.
//
// The table (linear probing, at most half full) and the request bank live
// on the stack for views of up to stackBank cells and come from the arena
// for larger ones, so the join allocates nothing.
func rarJoin[K ~int32, V any](v View,
	key func(local int) (K, bool),
	value func(local int) *V,
	request func(local int) (key K, ok bool),
	deliver func(local int, val *V, found bool),
) {
	m := v.Size()
	bits := 1
	for 1<<bits < 2*m {
		bits++
	}
	var stackTable [2 * stackBank]joinSlot
	var stackReqs [stackBank]joinReq
	var arenaTable []joinSlot // nil while the table fits on the stack
	var arenaReqs []joinReq
	var table []joinSlot
	var reqs []joinReq
	if m <= stackBank {
		table, reqs = stackTable[:1<<bits], stackReqs[:0]
	} else {
		arenaTable = Checkout[joinSlot](v.m, 1<<bits)
		arenaReqs = Checkout[joinReq](v.m, m)
		clear(arenaTable)
		table, reqs = arenaTable, arenaReqs[:0]
	}
	shift := 32 - bits
	for i := 0; i < m; i++ {
		if k, ok := key(i); ok {
			*joinProbe(table, shift, int32(k)) = joinSlot{int32(k), int32(i) + 1}
		}
		if k, ok := request(i); ok {
			reqs = append(reqs, joinReq{int32(k), int32(i)})
		}
	}
	v.charge(OpSort, 2*v.rowMajorSortCost())
	v.charge(OpScan, 2*v.scanCost())
	v.charge(OpSort, v.rowMajorSortCost())
	for _, r := range reqs {
		if src1 := joinProbe(table, shift, r.key).src1; src1 != 0 {
			deliver(int(r.origin), value(int(src1-1)), true)
		} else {
			deliver(int(r.origin), nil, false)
		}
	}
	if arenaTable != nil {
		Release(v.m, arenaTable)
		Release(v.m, arenaReqs)
	}
	v.charge(OpRAR, 1)
}

// RAW is the combining random-access write, the dual of RAR: every
// processor may issue one keyed write, every processor may expose one keyed
// record cell, and each record cell receives the combination (under the
// associative, commutative combine) of all values written to its key.
// Record keys must be unique within the view. Cells nobody writes to are
// not delivered. Writes to keys with no record cell are dropped.
//
// Mesh realization charged here: sort the 2m-item bank by (key, record
// first) — bankWord(key, !isRec); a reverse segmented copy-scan folds each key's writes together
// onto its record; sort the records back by origin. Cost: 1 double-sort +
// 1 double-scan + 1 single sort.
//
// In audit mode every record delivery is cross-checked against a host-side
// fold of the pristine write set, mirroring RAR's oracle.
func RAW[K ~int32, V any](v View,
	record func(local int) (key K, ok bool),
	write func(local int) (key K, val V, ok bool),
	combine func(a, b V) V,
	deliver func(local int, combined V, any bool),
) {
	type item struct {
		key    K
		isRec  bool
		has    bool
		val    V
		origin int32
	}
	v = v.begin(OpRAW)
	m := v.Size()
	items := Checkout[item](v.m, 2*m)[:0]
	for i := 0; i < m; i++ {
		if k, ok := record(i); ok {
			items = append(items, item{key: k, isRec: true, origin: int32(i)})
		}
		if k, val, ok := write(i); ok {
			items = append(items, item{key: k, val: val, has: true, origin: int32(i)})
		}
	}
	// Audit oracle: each record origin expects the right-fold of all writes
	// to its key in collection order — exactly what the reverse copy-scan
	// computes on the stably sorted bank.
	var expect map[int32]*rarExpect[V]
	if v.m.audit {
		writes := make(map[K][]V, len(items))
		for _, it := range items {
			if !it.isRec {
				writes[it.key] = append(writes[it.key], it.val)
			}
		}
		expect = make(map[int32]*rarExpect[V], len(items))
		for _, it := range items {
			if it.isRec {
				e := &rarExpect[V]{}
				if ws := writes[it.key]; len(ws) > 0 {
					acc := ws[len(ws)-1]
					for i := len(ws) - 2; i >= 0; i-- {
						acc = combine(ws[i], acc)
					}
					e.val, e.found = acc, true
				}
				expect[it.origin] = e
			}
		}
	}
	sortSlice(v, "RAW", items, 2, func(it item) uint64 { return bankWord(it.key, !it.isRec) })
	// Reverse scan: fold write values toward the record at the front of
	// each key segment.
	scanSliceRev(v, "RAW", items, 2,
		func(i int) bool { return i == len(items)-1 || items[i].key != items[i+1].key },
		func(a, b item) item {
			if a.has {
				if b.has {
					b.val = combine(b.val, a.val)
				} else {
					b.val = a.val
					b.has = true
				}
			}
			return b
		})
	recs := items[:0]
	for _, it := range items {
		if it.isRec {
			recs = append(recs, it)
		}
	}
	sortSlice(v, "RAW", recs, 1, func(it item) uint64 { return uint64(it.origin) })
	for _, it := range recs {
		if expect != nil {
			auditDelivery(v, "RAW", expect, it.origin, it.val, it.has)
		}
		deliver(int(it.origin), it.val, it.has)
	}
	if expect != nil {
		auditAllDelivered(v, "RAW", expect)
	}
	Release(v.m, items)
	v.charge(OpRAW, 1)
}

// scanSliceRev mirrors scanSlice in reverse index order, including the
// fault-injection consult and the audit-mode prefix-identity check (which,
// like scanSlice's, also pins the untouched head cells and the last record
// to their input values).
func scanSliceRev[T any](v View, opName string, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: scanSliceRev overflow")
	}
	var in []T
	if v.m.audit && len(xs) > 0 {
		in = append(in, xs...)
	}
	for i := len(xs) - 2; i >= 0; i-- {
		if !head(i) {
			xs[i] = op(xs[i+1], xs[i])
		}
	}
	corruptSlice(v, opName, xs)
	if in != nil {
		for i := len(xs) - 1; i >= 0; i-- {
			var want T
			if i == len(xs)-1 || head(i) {
				want = in[i]
			} else {
				want = op(xs[i+1], in[i])
			}
			if !reflect.DeepEqual(xs[i], want) {
				panic(&AuditError{
					Geom:   v.m.geometry(),
					Op:     opName,
					Detail: fmt.Sprintf("prefix identity broken at record %d of %d", i, len(xs)),
				})
			}
		}
	}
	v.charge(OpScan, int64(perProc)*v.scanCost())
}

// Route moves selected records of r to computed destination local indices.
// Destinations must be distinct (panic otherwise: a routing collision is a
// program bug in the calling algorithm — the paper's routings are always
// collision-free by construction). Source cells of moved records that do
// not themselves receive a record are set to clear. sel reads each cell and
// must not write through val. Cost: one sort.
func Route[T any](v View, r *Reg[T], clear T, sel func(local int, val *T) (dest int, ok bool)) {
	v = v.begin(OpRoute)
	cleared := Checkout[int32](v.m, v.Size())[:0]
	moves := collectMoves(v, r,
		func(i int, val *T) (int, bool) {
			d, ok := sel(i, val)
			if ok {
				cleared = append(cleared, int32(i))
			}
			return d, ok
		}, "Route")
	// Source and destination are one register: read every moved record
	// before any cell is overwritten.
	vals := Checkout[T](v.m, len(moves))
	for k, mv := range moves {
		vals[k] = r.data[v.Global(int(mv.src))]
	}
	for _, i := range cleared {
		r.data[v.Global(int(i))] = clear
	}
	for k, mv := range moves {
		r.data[v.Global(int(mv.dest))] = vals[k]
	}
	Release(v.m, vals)
	Release(v.m, cleared)
	Release(v.m, moves)
	v.charge(OpRoute, 1)
}

// Concentrate moves the records satisfying pred to local indices 0..k-1,
// preserving their order, sets every other cell to clear, and returns k.
// Cost: one sort (stable sort by the predicate).
//
// The concentration executes as a stable sort on the predicate through
// runSort — key 0 for satisfying records, 1 for the rest, order preserved
// within each group — so the fault-injection and audit seams cover it like
// every other charged sort. The non-satisfying tail is overwritten with
// clear after the sort (and after the audit's reference comparison).
func Concentrate[T any](v View, r *Reg[T], clearVal T, pred func(T) bool) int {
	v = v.begin(OpConcentrate)
	xs := gatherScratch(v, r)
	k := 0
	for _, x := range xs {
		if pred(x) {
			k++
		}
	}
	runSort(v, "Concentrate", xs, func(x T) uint64 {
		if pred(x) {
			return 0
		}
		return 1
	})
	for i := k; i < len(xs); i++ {
		xs[i] = clearVal
	}
	scatter(v, r, xs)
	Release(v.m, xs)
	v.charge(OpConcentrate, v.rowMajorSortCost())
	return k
}

// BroadcastBlock writes block into local indices 0..len(block)-1 of every
// listed sub-view of parent. On the machine this is the pipelined submesh
// replication sweep: the block travels across the top row of submeshes and
// down every submesh column, words pipelined, in ≤ 2·(rows+cols) steps of
// the parent. block must fit in each sub-view.
//
// Fault model: one replicated cell misses the sweep and latches its
// pre-sweep word (the injector's CorruptCell over the len(subs)·len(block)
// written cells, src selecting the stale word, dst the cell that keeps it).
// Audit mode verifies every written cell against the block.
func BroadcastBlock[T any](parent View, r *Reg[T], block []T, subs []View) {
	parent = parent.begin(OpBroadcast)
	for _, s := range subs {
		if len(block) > s.Size() {
			panic("mesh: BroadcastBlock block larger than sub-view")
		}
	}
	written := len(subs) * len(block)
	cellOf := func(flat int) (View, int) { return subs[flat/len(block)], flat % len(block) }
	var stale T
	staleAt := -1
	if inj := parent.m.inj; inj != nil && written > 0 {
		if s, d, ok := inj.CorruptCell("BroadcastBlock", written); ok &&
			s != d && s >= 0 && d >= 0 && s < written && d < written {
			sv, si := cellOf(s)
			stale, staleAt = r.data[sv.Global(si)], d
		}
	}
	for _, s := range subs {
		Load(s, r, block)
	}
	if staleAt >= 0 {
		dv, di := cellOf(staleAt)
		r.data[dv.Global(di)] = stale
	}
	if parent.m.audit {
		for f := 0; f < written; f++ {
			sv, si := cellOf(f)
			if !reflect.DeepEqual(r.data[sv.Global(si)], block[si]) {
				panic(&AuditError{
					Geom:   parent.m.geometry(),
					Op:     "BroadcastBlock",
					Detail: fmt.Sprintf("replicated cell %d of sub-view %d differs from the block", si, f/len(block)),
				})
			}
		}
	}
	parent.charge(OpBroadcast, int64(2*(parent.h+parent.w)))
}
