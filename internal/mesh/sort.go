package mesh

import (
	"fmt"
	"reflect"
	"slices"
)

// Every charged sort orders its bank by one uint64 key word per record:
// key(a) < key(b) is the order, and ties keep their input order. The
// simulator charges a sort by formula, and a stable sort's output is unique,
// so how the host executes it changes no step, answer or fault outcome. The
// host runs it as an LSD radix sort over the key bytes that vary across the
// bank (radixSort); the comparison sort sortStable remains as the algorithm a
// lying comparator corrupts and as the audit's reference.

// signBit maps a signed int32 onto an unsigned word in the same order.
const signBit = 1 << 31

// Key2 packs two signed int32 fields into one order-preserving sort word:
// Key2(a, b) < Key2(c, d) exactly when (a, b) precedes (c, d)
// lexicographically. Composite sort keys are built from it.
func Key2(hi, lo int32) uint64 {
	return uint64(uint32(hi)^signBit)<<32 | uint64(uint32(lo)^signBit)
}

// sortStable stable-sorts xs by less without reflection or allocation
// (sort.SliceStable boxes the slice and builds a reflect.Swapper on every
// call, which is what made sorting dominate the allocation profile). It is
// the reference comparison sort: the host algorithm only under a lying
// comparator, and the audit's oracle for radixSort.
func sortStable[T any](xs []T, less func(a, b T) bool) {
	slices.SortStableFunc(xs, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}

// insertionCutoff is the bank size below which radixSort insertion-sorts in
// place: a radix pass costs a 256-bucket histogram whatever the bank size.
const insertionCutoff = 12

// stackBank is the largest bank whose (key, index) pairs radixSort keeps in
// arrays on its own stack instead of arena banks. The δ-submesh reads of a
// side-16 multisearch round (at most 32 items) stay below it, so the
// submesh bodies RunParallel runs concurrently take no arena banks to sort,
// and the arena does not grow when the scheduler interleaves two of them.
const stackBank = 64

// keyed is one record's sort word and its index in the unsorted bank. The
// radix passes move these 16-byte pairs, never the records, so a wide
// record (a 192-byte graph.Vertex) moves once, in the final permutation.
type keyed struct {
	key uint64
	idx int32
}

// radixSort stable-sorts xs by key. It extracts every key once, sorts
// (key, index) pairs by a stable LSD radix sort over only the bytes in which
// the bank's keys differ, and then moves each record once. Pair banks up to
// stackBank live on the stack; larger ones come from the mesh arena, each
// checked out at len(xs), so the sort allocates nothing once the arena is
// warm.
func radixSort[T any](m *Mesh, xs []T, key func(T) uint64) {
	n := len(xs)
	if n < insertionCutoff {
		insertionSort(xs, key)
		return
	}
	var stack [2][stackBank]keyed
	var pa, pb []keyed // arena banks; nil while the pairs fit on the stack
	src, dst := stack[0][:0], stack[1][:0]
	if n > stackBank {
		pa = Checkout[keyed](m, n)
		src = pa[:0]
	}
	or, and, sorted := uint64(0), ^uint64(0), true
	for i := range xs {
		k := key(xs[i])
		sorted = sorted && (i == 0 || src[i-1].key <= k)
		src = append(src, keyed{k, int32(i)})
		or |= k
		and &= k
	}
	if !sorted {
		if n > stackBank {
			pb = Checkout[keyed](m, n)
			dst = pb
		}
		dst = dst[:n]
		varying := or ^ and // the bits in which some two keys differ
		for shift := 0; shift < 64; shift += 8 {
			if byte(varying>>shift) == 0 {
				continue
			}
			var start [256]int
			for _, e := range src {
				start[byte(e.key>>shift)]++
			}
			sum := 0
			for d, c := range start {
				start[d] = sum
				sum += c
			}
			for _, e := range src {
				d := byte(e.key >> shift)
				dst[start[d]] = e
				start[d]++
			}
			src, dst = dst, src
		}
		permute(xs, src)
	}
	if pa != nil {
		Release(m, pa)
	}
	if pb != nil {
		Release(m, pb)
	}
}

// permute rearranges xs in place so that position i receives the record
// that was at order[i].idx. It follows each cycle of the permutation once,
// so every record moves once and one record per cycle is held aside. It
// overwrites order[i].idx with i as each position is filled.
func permute[T any](xs []T, order []keyed) {
	for i := range order {
		if int(order[i].idx) == i {
			continue
		}
		held := xs[i]
		j := i
		for {
			k := int(order[j].idx)
			order[j].idx = int32(j)
			if k == i {
				xs[j] = held
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
}

// insertionSort is radixSort's small-bank path: a stable insertion sort
// with each key extracted once.
func insertionSort[T any](xs []T, key func(T) uint64) {
	var ks [insertionCutoff]uint64
	for i := range xs {
		ks[i] = key(xs[i])
	}
	for i := 1; i < len(xs); i++ {
		k, x := ks[i], xs[i]
		j := i
		for ; j > 0 && ks[j-1] > k; j-- {
			ks[j], xs[j] = ks[j-1], xs[j-1]
		}
		ks[j], xs[j] = k, x
	}
}

// runSort is the single execution point of every charged sort: it applies
// fault injection (a lying comparator, a corrupted write-back cell) when an
// injector is installed, and verifies the output against the reference
// comparison sort when audit mode is on. It performs no charging — callers
// keep their own cost lines. With injection and audit off it is exactly
// radixSort: two nil/bool checks, no allocation.
//
// A lying comparator corrupts the reference comparison sort driven by the
// derived comparator key(a) < key(b), so "the k-th comparison onward"
// counts the comparisons that sort makes.
func runSort[T any](v View, op string, xs []T, key func(T) uint64) {
	m := v.m
	var ref []T
	if m.audit && len(xs) > 0 {
		ref = append(ref, xs...)
	}
	if inj := m.inj; inj != nil {
		if k := inj.SortLie(op, len(xs)); k > 0 {
			var n int64
			sortStable(xs, func(a, b T) bool {
				n++
				r := key(a) < key(b)
				if n >= k {
					return !r
				}
				return r
			})
		} else {
			radixSort(m, xs, key)
		}
		corruptSlice(v, op, xs)
	} else {
		radixSort(m, xs, key)
	}
	if ref != nil {
		sortStable(ref, func(a, b T) bool { return key(a) < key(b) })
		for i := range ref {
			if !reflect.DeepEqual(xs[i], ref[i]) {
				panic(&AuditError{
					Geom: m.geometry(),
					Op:   op,
					Detail: fmt.Sprintf(
						"sort output differs from reference stable sort at record %d of %d", i, len(ref)),
				})
			}
		}
	}
}

// Sort sorts the view's record per processor into row-major order by key.
// The sort is stable. Cost: shearsort into snake order plus one row sweep to
// flip the odd rows into row-major order (see mesh.go cost formulas).
func Sort[T any](v View, r *Reg[T], key func(T) uint64) {
	v = v.begin(OpSort)
	xs := gatherScratch(v, r)
	runSort(v, "Sort", xs, key)
	scatter(v, r, xs)
	Release(v.m, xs)
	v.charge(OpSort, v.rowMajorSortCost())
}

// SortSnake sorts into snake-like order: even rows run left-to-right, odd
// rows right-to-left. This is the native output order of shearsort and is
// what scan-based algorithms on the physical machine consume. Cost: one
// shearsort.
func SortSnake[T any](v View, r *Reg[T], key func(T) uint64) {
	v = v.begin(OpSort)
	xs := gatherScratch(v, r)
	runSort(v, "SortSnake", xs, key)
	// Lay the sorted sequence back out in snake order.
	k := 0
	for row := 0; row < v.h; row++ {
		if row%2 == 0 {
			for c := 0; c < v.w; c++ {
				r.data[v.Global(row*v.w+c)] = xs[k]
				k++
			}
		} else {
			for c := v.w - 1; c >= 0; c-- {
				r.data[v.Global(row*v.w+c)] = xs[k]
				k++
			}
		}
	}
	Release(v.m, xs)
	v.charge(OpSort, v.sortCost())
}

// SortCost reports, without executing anything, the charge of one row-major
// Sort on the view under the active cost model. Harness code uses it to
// annotate tables.
func (v View) SortCost() int64 { return v.rowMajorSortCost() }

// doubleSortCost is the charge for sorting two records per processor (2m
// items on m processors): each transposition round moves two words per link,
// doubling the time of every phase.
func (v View) doubleSortCost() int64 { return 2 * v.rowMajorSortCost() }

// sortSlice stable-sorts a scratch slice holding up to perProc records per
// processor by key and charges the corresponding multi-record sort cost.
// Compound operations (RAR, RAW, Route) build on this single source of cost
// truth; op names the operation for fault injection and audit reports.
func sortSlice[T any](v View, op string, xs []T, perProc int, key func(T) uint64) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: sortSlice overflow")
	}
	runSort(v, op, xs, key)
	v.charge(OpSort, int64(perProc)*v.rowMajorSortCost())
}

// scanSlice charges one scan on the view and performs a segmented inclusive
// scan over a scratch slice (up to perProc records per processor); opName
// names the operation for fault injection and audit reports. In audit mode
// the output is verified against the full prefix identity on a pristine copy
// of the input: out[i] = op(out[i-1], in[i]) at interior records, and
// out[i] = in[i] at segment heads and record 0 — the head cells are part of
// the machine state too, so a fault landing there must not escape.
func scanSlice[T any](v View, opName string, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: scanSlice overflow")
	}
	var in []T
	if v.m.audit && len(xs) > 0 {
		in = append(in, xs...)
	}
	for i := 1; i < len(xs); i++ {
		if !head(i) {
			xs[i] = op(xs[i-1], xs[i])
		}
	}
	corruptSlice(v, opName, xs)
	if in != nil {
		for i := 0; i < len(xs); i++ {
			var want T
			if i == 0 || head(i) {
				want = in[i]
			} else {
				want = op(xs[i-1], in[i])
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
