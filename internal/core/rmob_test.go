package core

import (
	"testing"

	"stems/internal/mem"
)

func rblock(i int) mem.Addr { return mem.Addr(i * mem.BlockSize) }

func TestRMOBAppendLookup(t *testing.T) {
	r := NewRMOB(8)
	r.Append(RMOBEntry{Block: rblock(1), PC: 10, Delta: 0})
	r.Append(RMOBEntry{Block: rblock(2), PC: 11, Delta: 3})
	pos, ok := r.Lookup(rblock(1))
	if !ok || pos != 0 {
		t.Fatalf("Lookup = (%d,%v), want (0,true)", pos, ok)
	}
	e, ok := r.At(pos)
	if !ok || e.Block != rblock(1) || e.PC != 10 {
		t.Fatalf("At(0) = %+v,%v", e, ok)
	}
	if _, ok := r.Lookup(rblock(99)); ok {
		t.Fatal("lookup of absent block succeeded")
	}
}

func TestRMOBMostRecentOccurrence(t *testing.T) {
	r := NewRMOB(8)
	r.Append(RMOBEntry{Block: rblock(1)})
	r.Append(RMOBEntry{Block: rblock(2)})
	r.Append(RMOBEntry{Block: rblock(1)})
	pos, ok := r.Lookup(rblock(1))
	if !ok || pos != 2 {
		t.Fatalf("Lookup = (%d,%v), want most recent (2,true)", pos, ok)
	}
}

func TestRMOBWrapInvalidation(t *testing.T) {
	r := NewRMOB(4)
	r.Append(RMOBEntry{Block: rblock(1)})
	for i := 10; i < 14; i++ {
		r.Append(RMOBEntry{Block: rblock(i)})
	}
	if _, ok := r.Lookup(rblock(1)); ok {
		t.Fatal("lapped entry still resolvable")
	}
	// At() on lapped positions fails.
	if _, ok := r.At(0); ok {
		t.Fatal("At(0) succeeded after lap")
	}
	if _, ok := r.At(99); ok {
		t.Fatal("At beyond head succeeded")
	}
}

func TestRMOBLen(t *testing.T) {
	r := NewRMOB(4)
	if r.Len() != 0 {
		t.Fatalf("empty Len = %d", r.Len())
	}
	for i := 0; i < 6; i++ {
		r.Append(RMOBEntry{Block: rblock(i)})
	}
	if r.Len() != 4 || r.Appends() != 6 {
		t.Fatalf("Len=%d Appends=%d, want 4/6", r.Len(), r.Appends())
	}
}

func TestRMOBPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRMOB(0) did not panic")
		}
	}()
	NewRMOB(0)
}
