package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocAndAccess(t *testing.T) {
	g := NewGlobal()
	a, err := g.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if a < nullGuard {
		t.Fatalf("allocation landed in the null guard: 0x%x", a)
	}
	if err := g.Store32(a, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(a)
	if err != nil || v != 0xcafebabe {
		t.Fatalf("load = 0x%x, %v", v, err)
	}
}

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal()
	a1, _ := g.Alloc(5)
	a2, _ := g.Alloc(4)
	if a1%8 != 0 || a2%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: 0x%x 0x%x", a1, a2)
	}
	if a2-a1 != 8 {
		t.Fatalf("5-byte alloc should occupy 8 bytes, got %d", a2-a1)
	}
}

// TestAllocGrowsToHighWaterMark: device memory is exactly as large as
// what was allocated. After every Alloc the storage ends at the new
// high-water mark, earlier contents survive the growth, and the grown
// words read as zero.
func TestAllocGrowsToHighWaterMark(t *testing.T) {
	for _, sizes := range [][]int{
		{4},
		{5, 4},
		{4096, 1, 1 << 20, 12},
		{1 << 16, 1 << 16, 1 << 16},
	} {
		g := NewGlobal()
		if g.CapacityBytes() != nullGuard {
			t.Fatalf("empty Global holds %d bytes, want the %d-byte null guard", g.CapacityBytes(), nullGuard)
		}
		var bases []uint32
		for i, size := range sizes {
			base, err := g.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.CapacityBytes(), nullGuard+g.AllocatedBytes(); got != want {
				t.Fatalf("%v: after alloc %d capacity = %d, want hwm %d", sizes, i, got, want)
			}
			for addr := base; addr < base+uint32(size); addr += 4 {
				if v := g.Word(addr); v != 0 {
					t.Fatalf("%v: grown word at %#x = %#x, want 0", sizes, addr, v)
				}
			}
			g.SetWord(base, 0xa5a5a5a5^uint32(i))
			bases = append(bases, base)
		}
		for i, base := range bases {
			if v := g.Word(base); v != 0xa5a5a5a5^uint32(i) {
				t.Fatalf("%v: allocation %d lost its contents across growth: %#x", sizes, i, v)
			}
		}
	}
}

func TestNullAndOOBFault(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(16)
	var ae *AccessError

	if _, err := g.Load32(0); !errors.As(err, &ae) || ae.Kind != "null" {
		t.Errorf("null load: %v", err)
	}
	if _, err := g.Load32(a + 1<<20); !errors.As(err, &ae) || ae.Kind != "out of bounds" {
		t.Errorf("oob load: %v", err)
	}
	if err := g.Store32(a+2, 1); !errors.As(err, &ae) || ae.Kind != "unaligned" {
		t.Errorf("unaligned store: %v", err)
	}
	if _, _, err := g.Load64(a + 4); !errors.As(err, &ae) || ae.Kind != "unaligned" {
		t.Errorf("unaligned load64 (8-byte alignment required): %v", err)
	}
}

func TestAccessJustPastHWMFaults(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(16)
	if _, err := g.Load32(a + 12); err != nil {
		t.Fatalf("last word should be readable: %v", err)
	}
	if _, err := g.Load32(a + 16); err == nil {
		t.Fatal("first word past the allocation must fault")
	}
}

func TestLoad64Store64RoundTrip(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(32)
	if err := g.Store64(a+8, 0x11111111, 0x22222222); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.Load64(a + 8)
	if err != nil || lo != 0x11111111 || hi != 0x22222222 {
		t.Fatalf("load64 = %x,%x,%v", lo, hi, err)
	}
}

func TestAtomicAdd(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(8)
	g.SetWord(a, 5)
	old, err := g.AtomicAdd32(a, 3)
	if err != nil || old != 5 {
		t.Fatalf("atomic add old = %d, %v", old, err)
	}
	if v, _ := g.Load32(a); v != 8 {
		t.Fatalf("after atomic add: %d", v)
	}
}

func TestFlipBitStaysInAllocation(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(8)
	before := g.ReadWords(a, 2)
	g.FlipBit(0)
	after := g.ReadWords(a, 2)
	diff := (before[0] ^ after[0]) | (before[1] ^ after[1])
	if popcount(diff) != 1 {
		t.Fatalf("FlipBit must flip exactly one allocated bit, diff=%x", diff)
	}
	// Bit index far beyond the allocation wraps instead of escaping.
	g.FlipBit(1 << 40)
	if g.AllocatedBytes() != 8 {
		t.Fatal("allocation bookkeeping corrupted")
	}
}

func TestFlipBitRoundTrips(t *testing.T) {
	f := func(bit uint16) bool {
		g := NewGlobal()
		a, _ := g.Alloc(256)
		g.FlipBit(uint64(bit) % 2048)
		g.FlipBit(uint64(bit) % 2048)
		for i, w := range g.ReadWords(a, 64) {
			if w != 0 {
				t.Logf("word %d nonzero after double flip", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	g := NewGlobal()
	a, _ := g.Alloc(16)
	g.SetWord(a, 7)
	g.Reset()
	if g.AllocatedBytes() != 0 {
		t.Fatal("reset should drop allocations")
	}
	b, _ := g.Alloc(16)
	if v := g.Word(b); v != 0 {
		t.Fatalf("memory not zeroed after reset: %d", v)
	}
}

func TestOutOfMemory(t *testing.T) {
	g := NewGlobal()
	if _, err := g.Alloc(1 << 32); err == nil {
		t.Fatal("allocation past the 32-bit address space should fail")
	}
	if g.AllocatedBytes() != 0 || g.CapacityBytes() != nullGuard {
		t.Fatalf("failed allocation left %d allocated, %d bytes of storage",
			g.AllocatedBytes(), g.CapacityBytes())
	}
	if _, err := g.Alloc(0); err == nil {
		t.Fatal("zero-size allocation should fail")
	}
}

func TestSharedMemory(t *testing.T) {
	s := NewShared(1024)
	if s.Size() != 1024 {
		t.Fatalf("size = %d", s.Size())
	}
	if err := s.Store32(100, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Load32(100); v != 42 {
		t.Fatalf("load = %d", v)
	}
	if _, err := s.Load32(1024); err == nil {
		t.Fatal("oob shared load must fault")
	}
	if err := s.Store32(2, 1); err == nil {
		t.Fatal("unaligned shared store must fault")
	}
	if err := s.Store64(8, 1, 2); err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := s.Load64(8)
	if lo != 1 || hi != 2 {
		t.Fatal("shared 64-bit round trip failed")
	}
}

func TestSharedFlipBit(t *testing.T) {
	s := NewShared(64)
	s.FlipBit(37)
	v, _ := s.Load32(4)
	if v != 1<<5 {
		t.Fatalf("bit 37 should be word 1 bit 5, got %x", v)
	}
	// Zero-size region: no-op, no panic.
	NewShared(0).FlipBit(3)
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
