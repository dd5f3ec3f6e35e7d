package mesh

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// rarFuzzSide is the mesh side of FuzzRARJoin: the whole mesh (256 cells)
// and its sub-views fall on both sides of stackBank.
const rarFuzzSide = 16

// rarFuzzBank is one RAR workload decoded from fuzzer bytes: a view of the
// mesh and, per view cell, an optional record key and request key.
type rarFuzzBank struct {
	r0, c0, h, w   int
	hasRec, hasReq []bool
	recKey, reqKey []int32
}

// decodeRARBank decodes fuzzer bytes. Byte 0 selects the view (bit 0: a
// sub-view rather than the whole mesh) and the key width (bit 1: four bytes
// per key, any int32, rather than one byte per key: small keys, mostly
// duplicate, with 0x7f and 0x80 standing for MaxInt32 and MinInt32). Bytes
// 1–4 place and size a sub-view. The rest is cycled per cell: one mask byte
// (bit 0 a record, bit 1 a request), the record key, the request key. No
// body at all leaves every cell without a record or a request.
func decodeRARBank(data []byte) rarFuzzBank {
	var hdr [5]byte
	copy(hdr[:], data)
	b := rarFuzzBank{h: rarFuzzSide, w: rarFuzzSide}
	if hdr[0]&1 != 0 {
		b.r0, b.c0 = int(hdr[1])%rarFuzzSide, int(hdr[2])%rarFuzzSide
		b.h = 1 + int(hdr[3])%(rarFuzzSide-b.r0)
		b.w = 1 + int(hdr[4])%(rarFuzzSide-b.c0)
	}
	var body []byte
	if len(data) > len(hdr) {
		body = data[len(hdr):]
	}
	pos := 0
	next := func() byte {
		if len(body) == 0 {
			return 0
		}
		c := body[pos%len(body)]
		pos++
		return c
	}
	key := func() int32 {
		if hdr[0]&2 != 0 {
			var k [4]byte
			for j := range k {
				k[j] = next()
			}
			return int32(binary.LittleEndian.Uint32(k[:]))
		}
		switch c := next(); c {
		case 0x7f:
			return math.MaxInt32
		case 0x80:
			return math.MinInt32
		default:
			return int32(int8(c))
		}
	}
	m := b.h * b.w
	b.hasRec, b.hasReq = make([]bool, m), make([]bool, m)
	b.recKey, b.reqKey = make([]int32, m), make([]int32, m)
	for i := 0; i < m; i++ {
		mask := next()
		b.hasRec[i], b.hasReq[i] = mask&1 != 0, mask&2 != 0
		b.recKey[i], b.reqKey[i] = key(), key()
	}
	return b
}

// rarFuzzDelivery is one reply as its requesting processor saw it: the
// value is the local index of the record read, -1 for nil.
type rarFuzzDelivery struct {
	origin, val int
	found       bool
}

// runRARBank runs one RAR of bank b on m and returns its delivery stream.
func runRARBank(m *Mesh, b rarFuzzBank) []rarFuzzDelivery {
	v := m.Root().Sub(b.r0, b.c0, b.h, b.w)
	vals := make([]int, v.Size())
	for i := range vals {
		vals[i] = i
	}
	var out []rarFuzzDelivery
	RAR(v,
		func(i int) (int32, bool) { return b.recKey[i], b.hasRec[i] },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return b.reqKey[i], b.hasReq[i] },
		func(i int, p *int, found bool) {
			d := rarFuzzDelivery{origin: i, val: -1, found: found}
			if p != nil {
				d.val = *p
			}
			out = append(out, d)
		})
	return out
}

// FuzzRARJoin checks RAR's hash join against its bank path. Each bank runs
// on a mesh with no injector (the join) and on one with an injector that
// never faults (which forces the bank path), and the two must deliver the
// same stream — origin, value and found, in order — and leave the same
// Steps() and Profile(). The seed corpus (testdata/fuzz/FuzzRARJoin) covers
// the whole mesh and sub-views at nonzero origins of 1, 64 and 65 or more
// cells, empty banks, a hot key, duplicate record keys, missing keys,
// negative keys, and MaxInt32 and MinInt32.
func FuzzRARJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := decodeRARBank(data)
		join := New(rarFuzzSide)
		bank := New(rarFuzzSide, WithInjector(&stubInjector{}))
		got, want := runRARBank(join, b), runRARBank(bank, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d view at (%d,%d): join delivered %v, bank path %v",
				b.h, b.w, b.r0, b.c0, got, want)
		}
		if join.Steps() != bank.Steps() || join.Profile() != bank.Profile() {
			t.Fatalf("%dx%d view at (%d,%d): join charged %d steps %v, bank path %d steps %v",
				b.h, b.w, b.r0, b.c0, join.Steps(), join.Profile(), bank.Steps(), bank.Profile())
		}
	})
}
