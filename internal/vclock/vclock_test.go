package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randVC(r *rand.Rand) VC {
	v := make(VC, 1+r.Intn(5))
	for i := range v {
		v[i] = uint64(r.Intn(8))
	}
	return v
}

// equal reports component-wise equality, missing components reading
// zero: the reference the order laws are checked against.
func equal(a, b VC) bool {
	for i := 0; i < max(len(a), len(b)); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

func TestBasics(t *testing.T) {
	v := make(VC, 3)
	v = v.Tick(0).Tick(0).Tick(2)
	if v.At(0) != 2 || v.At(1) != 0 || v.At(2) != 1 {
		t.Fatalf("v = %v", v)
	}
	if v.At(99) != 0 {
		t.Error("out-of-range component should read 0")
	}
	v = v.Tick(5)
	if len(v) != 6 || v.At(5) != 1 {
		t.Errorf("grow on tick failed: %v", v)
	}
}

func TestHappensBeforeAndConcurrent(t *testing.T) {
	a := VC{1, 0}
	b := VC{2, 1}
	c := VC{0, 2}
	if !a.LessEq(b) || b.LessEq(a) {
		t.Error("a < b expected")
	}
	if !a.Concurrent(c) || !c.Concurrent(a) {
		t.Error("a || c expected")
	}
	if a.Concurrent(a) {
		t.Error("clock concurrent with itself")
	}
	// Different lengths, same meaning.
	if !(VC{1, 0}).LessEq(VC{1}) || !(VC{1}).LessEq(VC{1, 0}) {
		t.Error("trailing zeros should not matter")
	}
}

func TestJoinIsLUB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		j := slices.Clone(a).Join(b)
		// Upper bound.
		if !a.LessEq(j) || !b.LessEq(j) {
			return false
		}
		// Least: any other upper bound dominates j.
		u := slices.Clone(a).Join(b).Tick(0)
		return j.LessEq(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJoinLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVC(r), randVC(r), randVC(r)
		// Commutative.
		if !equal(slices.Clone(a).Join(b), slices.Clone(b).Join(a)) {
			return false
		}
		// Associative.
		left := slices.Clone(a).Join(b).Join(c)
		right := slices.Clone(a).Join(slices.Clone(b).Join(c))
		if !equal(left, right) {
			return false
		}
		// Idempotent.
		return equal(slices.Clone(a).Join(a), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrderIsPartial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		// Antisymmetry: a ≤ b and b ≤ a implies equal.
		if a.LessEq(b) && b.LessEq(a) && !equal(a, b) {
			return false
		}
		// Exactly one of: a<b, b<a, a||b, a==b.
		states := 0
		if a.LessEq(b) && !b.LessEq(a) {
			states++
		}
		if b.LessEq(a) && !a.LessEq(b) {
			states++
		}
		if a.Concurrent(b) {
			states++
		}
		if equal(a, b) {
			states++
		}
		return states == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTickPreservesOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r)
		tid := r.Intn(len(a))
		b := slices.Clone(a).Tick(tid)
		return a.LessEq(b) && !b.LessEq(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := (VC{3, 0, 1}).String(); got != "[3 0 1]" {
		t.Errorf("String = %q", got)
	}
}
