package kernels

import (
	"sort"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Mergesort is a bottom-up GPU merge sort: pass p merges sorted runs of
// width 2^p pairwise, one thread per merge, ping-ponging between two
// buffers. Late passes leave most threads idle while a few long merges
// run — integer-heavy, divergent control flow.
const (
	msortN     = 512
	msortBlock = 256
)

// MergesortBuilder returns the merge-sort builder.
func MergesortBuilder() Builder {
	return buildMergesort
}

func buildMergesort(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const n = msortN
	r := dataRNG(0x3e96)
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(r.Uint32() & 0xffff)
	}
	ref := append([]int32(nil), data...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })

	g := mem.NewGlobal()
	bufA, err := g.Alloc(n * 4)
	if err != nil {
		return nil, err
	}
	bufB, _ := g.Alloc(n * 4)
	for i, v := range data {
		g.SetWord(bufA+uint32(i*4), uint32(v))
	}

	var launches []Launch
	passes := 0
	for w := 1; w < n; w *= 2 {
		src, dst := bufA, bufB
		if passes%2 == 1 {
			src, dst = bufB, bufA
		}
		prog, err := buildMergePass(opt, n, w, src, dst)
		if err != nil {
			return nil, err
		}
		threads := n / (2 * w)
		block := msortBlock
		if threads < block {
			block = threads
		}
		launches = append(launches, Launch{
			Prog: prog, GridX: (threads + block - 1) / block, GridY: 1, BlockThreads: block,
		})
		passes++
	}
	out := bufA
	if passes%2 == 1 {
		out = bufB
	}
	want := make([]uint32, n)
	for i, v := range ref {
		want[i] = uint32(v)
	}
	return &Instance{
		Name:     "MERGESORT",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(out, want),
		Output:   &OutputRegion{Base: out, Rows: 1, Cols: n, DType: isa.I32},
	}, nil
}

// buildMergePass merges run pairs of the given width. Thread t owns the
// runs at [t*2w, t*2w+w) and [t*2w+w, t*2w+2w). Exhausted runs feed the
// comparison a sentinel so the merge loop body stays branch-free.
func buildMergePass(opt asm.OptLevel, n, w int, src, dst uint32) (*isa.Program, error) {
	b := asm.New("merge_pass", opt)
	t := emitGID(b)

	base := b.R()
	b.IMul(base, isa.R(t), isa.ImmInt(int32(2*w)))
	// i, j are absolute indices into the two runs; k writes the output.
	i := b.R()
	j := b.R()
	k := b.R()
	iEnd := b.R()
	jEnd := b.R()
	b.Mov(i, isa.R(base))
	b.IAdd(iEnd, isa.R(base), isa.ImmInt(int32(w)))
	b.Mov(j, isa.R(iEnd))
	b.IAdd(jEnd, isa.R(base), isa.ImmInt(int32(2*w)))
	b.Mov(k, isa.R(base))

	pi := b.P()
	pj := b.P()
	pTake := b.P()
	av := b.R()
	bv := b.R()
	addr := b.R()
	sentinel := b.R()
	b.MovImm(sentinel, 0x7fffffff)

	kLoop := b.R()
	b.ForCounter(kLoop, 0, int32(2*w), asm.LoopOpts{}, func() {
		b.ISetp(pi, isa.CmpLT, isa.R(i), isa.R(iEnd))
		b.ISetp(pj, isa.CmpLT, isa.R(j), isa.R(jEnd))
		// Guarded loads; exhausted runs read as +inf.
		b.Mov(av, isa.R(sentinel))
		b.Guarded(pi, false, func() {
			b.IMad(addr, isa.R(i), isa.ImmInt(4), isa.ImmInt(int32(src)))
			b.Ldg(av, addr, 0)
		})
		b.Mov(bv, isa.R(sentinel))
		b.Guarded(pj, false, func() {
			b.IMad(addr, isa.R(j), isa.ImmInt(4), isa.ImmInt(int32(src)))
			b.Ldg(bv, addr, 0)
		})
		b.ISetp(pTake, isa.CmpLE, isa.R(av), isa.R(bv))
		out := b.R()
		b.Sel(out, pTake, isa.R(av), isa.R(bv))
		b.IMad(addr, isa.R(k), isa.ImmInt(4), isa.ImmInt(int32(dst)))
		b.Stg(addr, 0, out)
		b.IAdd(k, isa.R(k), isa.ImmInt(1))
		// Advance the source whose value was taken.
		b.Guarded(pTake, false, func() { b.IAdd(i, isa.R(i), isa.ImmInt(1)) })
		b.Guarded(pTake, true, func() { b.IAdd(j, isa.R(j), isa.ImmInt(1)) })
	})
	b.Exit()
	return b.Build()
}
