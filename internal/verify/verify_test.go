package verify

import (
	"math"
	"testing"
)

func TestDigestStability(t *testing.T) {
	mk := func() uint64 {
		d := NewDigest()
		d.Int(3).Ints([]int{1, 2, 3}).Floats([]float64{1.5, -2.25}).String("scheme")
		return d.Sum64()
	}
	if mk() != mk() {
		t.Fatal("digest not deterministic")
	}
	d1 := NewDigest().Ints([]int{1, 2}).Sum64()
	d2 := NewDigest().Ints([]int{2, 1}).Sum64()
	if d1 == d2 {
		t.Fatal("digest ignores order")
	}
	// Length prefixes keep [1],[2] distinct from [1,2],[].
	a := NewDigest().Ints([]int{1}).Ints([]int{2}).Sum64()
	b := NewDigest().Ints([]int{1, 2}).Ints(nil).Sum64()
	if a == b {
		t.Fatal("digest concatenation ambiguity")
	}
	// NaN payloads collapse to one canonical value.
	n1 := NewDigest().Float64(math.NaN()).Sum64()
	n2 := NewDigest().Float64(math.NaN()).Sum64()
	if n1 != n2 {
		t.Fatal("NaN digests differ")
	}
}
