package mesh

import (
	"encoding/binary"
	"testing"
)

// fuzzSide is the mesh side of FuzzSortStable: banks run up to 2·N() = 128
// records, the largest bank a charged sort on that mesh takes.
const fuzzSide = 8

// fuzzRec is a keyed record as a charged sort sees it: a sort word plus the
// record's position in the input, so an unstable tie shows in the output.
type fuzzRec struct {
	key uint64
	seq int32
}

// Fuzz bank encodings, selected by the first input byte.
const (
	fuzzRaw     = iota // 8 bytes per key, as is
	fuzzPairs          // 8 bytes per key, packed by Key2 as two signed int32s
	fuzzDups           // 1 byte per key: at most 256 distinct keys
	fuzzTopByte        // 1 byte per key, placed in the top byte of the word
	fuzzModes
)

// fuzzBank decodes fuzzer bytes into a bank of keyed records: byte 0
// selects the encoding, bytes 1–2 the bank length (mod 2·N()+1), and the
// rest supplies key bytes, cycled when the bank needs more than it holds
// (no key bytes at all makes every key 0).
func fuzzBank(data []byte) []fuzzRec {
	if len(data) < 3 {
		return nil
	}
	mode := data[0] % fuzzModes
	n := int(binary.LittleEndian.Uint16(data[1:3])) % (2*fuzzSide*fuzzSide + 1)
	body := data[3:]
	width := 8
	if mode == fuzzDups || mode == fuzzTopByte {
		width = 1
	}
	bank := make([]fuzzRec, n)
	for i := range bank {
		var w [8]byte
		for j := 0; j < width && len(body) > 0; j++ {
			w[j] = body[(i*width+j)%len(body)]
		}
		x := binary.LittleEndian.Uint64(w[:])
		switch mode {
		case fuzzPairs:
			x = Key2(int32(uint32(x>>32)), int32(uint32(x)))
		case fuzzTopByte:
			x <<= 56
		}
		bank[i] = fuzzRec{key: x, seq: int32(i)}
	}
	return bank
}

// FuzzSortStable checks the host sort against the reference comparison
// sort: on every bank, radixSort's output must equal slices.SortStableFunc
// driven by the derived comparator key(a) < key(b), record for record. The
// seed corpus (testdata/fuzz/FuzzSortStable) covers the empty and
// one-record banks, the insertion cutoff ±1, the largest stack-held bank and
// one past it, a full 2·N() bank, all-equal
// keys, keys differing only in the top byte, negative Key2 pairs, reversed
// and nearly sorted banks, and heavy duplicates in a radix-sized and an
// insertion-sized bank (stability).
func FuzzSortStable(f *testing.F) {
	m := New(fuzzSide)
	key := func(r fuzzRec) uint64 { return r.key }
	f.Fuzz(func(t *testing.T, data []byte) {
		got := fuzzBank(data)
		want := append([]fuzzRec(nil), got...)
		radixSort(m, got, key)
		sortStable(want, func(a, b fuzzRec) bool { return a.key < b.key })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d of %d: radix sort gave %+v, reference stable sort %+v",
					i, len(want), got[i], want[i])
			}
		}
	})
}
