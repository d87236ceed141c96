package kernels

import (
	"sort"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Quicksort sorts independent chunks, one per thread, with an iterative
// Lomuto quicksort driven by an explicit per-thread range stack kept in
// a global-memory scratch area (the workstack idiom of pre-dynamic-
// parallelism GPU quicksorts). Every loop is data-dependent, making this
// the most divergence-heavy integer workload in the suite; its shared-
// memory footprint is nearly zero, matching Table I (328 B).
const (
	qsortThreads = 128
	qsortChunk   = 16
	qsortStackE  = 24 // stack entries per thread (lo, hi pairs)
)

// QuicksortBuilder returns the quicksort builder.
func QuicksortBuilder() Builder {
	return buildQuicksort
}

func buildQuicksort(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const (
		nThr  = qsortThreads
		chunk = qsortChunk
		n     = nThr * chunk
	)
	r := dataRNG(0x9507)
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(r.Uint32() & 0xffffff)
	}
	ref := append([]int32(nil), data...)
	for t := 0; t < nThr; t++ {
		c := ref[t*chunk : (t+1)*chunk]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}

	g := mem.NewGlobal()
	dataBase, err := g.Alloc(n * 4)
	if err != nil {
		return nil, err
	}
	stackBase, _ := g.Alloc(nThr * qsortStackE * 2 * 4)
	for i, v := range data {
		g.SetWord(dataBase+uint32(i*4), uint32(v))
	}

	prog, err := buildQuicksortKernel(opt, chunk, dataBase, stackBase)
	if err != nil {
		return nil, err
	}
	want := make([]uint32, n)
	for i, v := range ref {
		want[i] = uint32(v)
	}
	return &Instance{
		Name:   "QUICKSORT",
		Dev:    dev,
		Global: g,
		Launches: []Launch{{
			Prog: prog, GridX: nThr / 32, GridY: 1, BlockThreads: 32,
		}},
		Check: checkWords(dataBase, want),
		// Each thread's sorted chunk is one row of the output grid.
		Output: &OutputRegion{Base: dataBase, Rows: nThr, Cols: chunk, DType: isa.I32},
	}, nil
}

func buildQuicksortKernel(opt asm.OptLevel, chunk int, dataBase, stackBase uint32) (*isa.Program, error) {
	b := asm.New("quicksort", opt)
	t := emitGID(b)

	// Per-thread stack cursor (entries of two words each).
	stk := b.R()
	b.IMad(stk, isa.R(t), isa.ImmInt(int32(qsortStackE*8)), isa.ImmInt(int32(stackBase)))
	sp := b.R()

	// Push the whole chunk: [t*chunk, t*chunk+chunk-1].
	lo := b.R()
	hi := b.R()
	b.IMul(lo, isa.R(t), isa.ImmInt(int32(chunk)))
	b.IAdd(hi, isa.R(lo), isa.ImmInt(int32(chunk-1)))
	b.Stg(stk, 0, lo)
	b.Stg(stk, 4, hi)
	b.MovImm(sp, 1)

	pSp := b.P()
	pBody := b.P()
	pLE := b.P()
	pJ := b.P()
	sAddr := b.R()
	pivot := b.R()
	i := b.R()
	j := b.R()
	aj := b.R()
	ai := b.R()
	aAddr := b.R()
	bAddr := b.R()
	im1 := b.R()
	ip1 := b.R()

	b.Label("qs_loop")
	b.ISetp(pSp, isa.CmpGT, isa.R(sp), isa.ImmInt(0))
	b.Guarded(pSp, false, func() {
		b.IAdd(sp, isa.R(sp), isa.ImmInt(-1))
		b.IMad(sAddr, isa.R(sp), isa.ImmInt(8), isa.R(stk))
		b.Ldg(lo, sAddr, 0)
		b.Ldg(hi, sAddr, 4)
	})
	// Threads with an empty stack process the inert range (1, 0).
	b.Sel(lo, pSp, isa.R(lo), isa.ImmInt(1))
	b.Sel(hi, pSp, isa.R(hi), isa.ImmInt(0))
	b.ISetp(pBody, isa.CmpLT, isa.R(lo), isa.R(hi))

	// Lomuto partition around pivot = a[hi]. Inert ranges may carry
	// hi = -1, so the (dead) pivot load clamps its index to zero.
	hClamp := b.R()
	b.IMax(hClamp, isa.R(hi), isa.ImmInt(0))
	b.IMad(aAddr, isa.R(hClamp), isa.ImmInt(4), isa.ImmInt(int32(dataBase)))
	b.Ldg(pivot, aAddr, 0)
	b.Mov(i, isa.R(lo))
	b.Mov(j, isa.R(lo))
	b.Label("qs_part")
	b.ISetp(pJ, isa.CmpLT, isa.R(j), isa.R(hi))
	b.Guarded(pJ, false, func() {
		b.IMad(aAddr, isa.R(j), isa.ImmInt(4), isa.ImmInt(int32(dataBase)))
		b.Ldg(aj, aAddr, 0)
	})
	// Threads past their range see a sentinel above any data value
	// (inputs are masked to 24 bits), folding pJ into pLE.
	b.Sel(aj, pJ, isa.R(aj), isa.ImmInt(0x7fffffff))
	b.ISetp(pLE, isa.CmpLE, isa.R(aj), isa.R(pivot))
	b.Guarded(pLE, false, func() {
		b.IMad(bAddr, isa.R(i), isa.ImmInt(4), isa.ImmInt(int32(dataBase)))
		b.Ldg(ai, bAddr, 0)
		b.Stg(bAddr, 0, aj)
		b.Stg(aAddr, 0, ai)
		b.IAdd(i, isa.R(i), isa.ImmInt(1))
	})
	b.IAdd(j, isa.R(j), isa.ImmInt(1))
	b.ISetp(pJ, isa.CmpLT, isa.R(j), isa.R(hi))
	b.BraIf(pJ, false, "qs_part")

	b.Guarded(pBody, false, func() {
		// Place the pivot: swap a[i] <-> a[hi].
		b.IMad(bAddr, isa.R(i), isa.ImmInt(4), isa.ImmInt(int32(dataBase)))
		b.IMad(aAddr, isa.R(hi), isa.ImmInt(4), isa.ImmInt(int32(dataBase)))
		b.Ldg(ai, bAddr, 0)
		b.Stg(bAddr, 0, pivot)
		b.Stg(aAddr, 0, ai)
		// Push (lo, i-1), (i+1, hi).
		b.IAdd(im1, isa.R(i), isa.ImmInt(-1))
		b.IAdd(ip1, isa.R(i), isa.ImmInt(1))
		b.IMad(sAddr, isa.R(sp), isa.ImmInt(8), isa.R(stk))
		b.Stg(sAddr, 0, lo)
		b.Stg(sAddr, 4, im1)
		b.Stg(sAddr, 8, ip1)
		b.Stg(sAddr, 12, hi)
		b.IAdd(sp, isa.R(sp), isa.ImmInt(2))
	})
	b.ISetp(pSp, isa.CmpGT, isa.R(sp), isa.ImmInt(0))
	b.BraIf(pSp, false, "qs_loop")
	b.Exit()
	return b.Build()
}
