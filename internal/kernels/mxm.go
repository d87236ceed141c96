package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// MxM is the naive matrix multiplication of the paper (§III-B): one
// thread per output element, row from CTAID.Y, column from the global x
// index, a straight k-loop of loads and FMAs with no tiling. It is
// "easily parallelizable [and] most GPU functional units are used for
// computation" (§VI), which gives it the highest SDC FIT in Figure 5.
const mxmN = 48

// MxMBuilder returns the builder for the given precision.
func MxMBuilder(dt isa.DType) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		return buildMxM(dev, opt, ElemFor(dt))
	}
}

func buildMxM(dev *device.Device, opt asm.OptLevel, e Elem) (*Instance, error) {
	const n = mxmN
	g := mem.NewGlobal()
	aBase, err := g.Alloc(n * n * int(e.size))
	if err != nil {
		return nil, err
	}
	bBase, _ := g.Alloc(n * n * int(e.size))
	cBase, _ := g.Alloc(n * n * int(e.size))

	r := dataRNG(uint64(e.dt))
	A := make([]hval, n*n)
	B := make([]hval, n*n)
	for i := range A {
		A[i] = e.round(randUnit(r, -1, 1))
		B[i] = e.round(randUnit(r, -1, 1))
	}
	e.writeSlice(g, aBase, A)
	e.writeSlice(g, bBase, B)

	// Host reference with the same FMA order as the kernel.
	C := make([]hval, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc hval
			for k := 0; k < n; k++ {
				acc = e.hFMA(A[i*n+k], B[k*n+j], acc)
			}
			C[i*n+j] = acc
		}
	}

	b := asm.New(e.Letter()+"MxM", opt)
	col := emitGID(b) // column index; row comes from CTAID.Y
	row := b.R()
	b.S2R(row, isa.SrCtaidY)

	// Address registers: aAddr walks row i (stride = elem size),
	// bAddr walks column j (stride = n * elem size).
	aAddr := b.R()
	bAddr := b.R()
	b.IMad(aAddr, isa.R(row), isa.ImmInt(int32(n)*e.size), isa.ImmInt(int32(aBase)))
	b.IMad(bAddr, isa.R(col), isa.ImmInt(e.size), isa.ImmInt(int32(bBase)))

	acc := e.Val(b)
	av := e.Val(b)
	bv := e.Val(b)
	e.Imm(b, acc, 0)
	k := b.R()
	b.ForCounter(k, 0, n, asm.LoopOpts{Unroll: 4}, func() {
		e.Load(b, av, aAddr, 0)
		e.Load(b, bv, bAddr, 0)
		e.FMA(b, acc, av, bv, acc)
		b.IAdd(aAddr, isa.R(aAddr), isa.ImmInt(e.size))
		b.IAdd(bAddr, isa.R(bAddr), isa.ImmInt(int32(n)*e.size))
	})

	cIdx := b.R()
	b.IMad(cIdx, isa.R(row), isa.ImmInt(int32(n)), isa.R(col))
	cAddr := emitAddr(b, cIdx, cBase, e.size)
	e.Store(b, cAddr, 0, acc)
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:   e.Letter() + "MXM",
		Dev:    dev,
		Global: g,
		Launches: []Launch{{
			Prog: prog, GridX: 1, GridY: n, BlockThreads: n,
		}},
		Check:  checkWords(cBase, e.expectWords(C)),
		Output: &OutputRegion{Base: cBase, Rows: n, Cols: n, DType: e.dt},
	}, nil
}
