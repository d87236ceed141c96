package kernels

import (
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Lava is the LavaMD molecular-dynamics kernel: particles live in boxes
// and accumulate pairwise forces against every particle in their own and
// neighbouring boxes, with an exponential cutoff evaluated on the SFU.
// One block per box, one thread per particle. As in the paper's Table I,
// the same kernel serves every precision (the SDC AVF is therefore
// precision-independent, §VI); the exponential always runs on the FP32
// special-function unit with conversions around it for FP16/FP64.
const (
	lavaBoxes = 8
	lavaPPB   = 16 // particles per box
)

// LavaBuilder returns the builder for the given precision.
func LavaBuilder(dt isa.DType) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		return buildLava(dev, opt, ElemFor(dt))
	}
}

func buildLava(dev *device.Device, opt asm.OptLevel, e Elem) (*Instance, error) {
	const (
		nb  = lavaBoxes
		ppb = lavaPPB
		n   = nb * ppb
	)
	g := mem.NewGlobal()
	// Particle i: x, y, z, q at stride 4 elements.
	pBase, err := g.Alloc(n * 4 * int(e.size))
	if err != nil {
		return nil, err
	}
	fBase, _ := g.Alloc(n * 4 * int(e.size)) // fx, fy, fz, pad

	r := dataRNG(0x1aba + uint64(e.dt))
	P := make([]hval, n*4)
	for i := 0; i < n; i++ {
		P[i*4+0] = e.round(randUnit(r, 0, 2))
		P[i*4+1] = e.round(randUnit(r, 0, 2))
		P[i*4+2] = e.round(randUnit(r, 0, 2))
		P[i*4+3] = e.round(randUnit(r, 0.1, 1))
	}
	e.writeSlice(g, pBase, P)

	// Host reference: exact mirror, including the FP32 SFU rounding.
	ex2 := func(x hval) hval {
		// The SFU computes exp2 on an FP32 operand regardless of the
		// kernel's working precision.
		x32 := float32(x)
		w := float32(math.Exp2(float64(x32)))
		return e.round(hval(w))
	}
	F := make([]hval, n*4)
	for box := 0; box < nb; box++ {
		for p := 0; p < ppb; p++ {
			me := box*ppb + p
			xi, yi, zi := P[me*4], P[me*4+1], P[me*4+2]
			var fx, fy, fz hval
			for d := 0; d < 3; d++ {
				ob := box + d - 1
				if ob < 0 {
					ob = 0
				}
				if ob > nb-1 {
					ob = nb - 1
				}
				for q := 0; q < ppb; q++ {
					o := ob*ppb + q
					dx := e.hSub(P[o*4], xi)
					dy := e.hSub(P[o*4+1], yi)
					dz := e.hSub(P[o*4+2], zi)
					r2 := e.hMul(dx, dx)
					r2 = e.hFMA(dy, dy, r2)
					r2 = e.hFMA(dz, dz, r2)
					w := ex2(e.hSub(0, r2))
					qw := e.hMul(w, P[o*4+3])
					fx = e.hFMA(qw, dx, fx)
					fy = e.hFMA(qw, dy, fy)
					fz = e.hFMA(qw, dz, fz)
				}
			}
			F[me*4], F[me*4+1], F[me*4+2] = fx, fy, fz
		}
	}

	prog, err := buildLavaKernel(opt, e, pBase, fBase)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:   e.Letter() + "LAVA",
		Dev:    dev,
		Global: g,
		Launches: []Launch{{
			Prog: prog, GridX: nb, GridY: 1, BlockThreads: ppb,
		}},
		Check: checkWords(fBase, e.expectWords(F)),
		// One particle's force vector (fx, fy, fz, pad) per row.
		Output: &OutputRegion{Base: fBase, Rows: n, Cols: 4, DType: e.dt},
	}, nil
}

func buildLavaKernel(opt asm.OptLevel, e Elem, pBase, fBase uint32) (*isa.Program, error) {
	const (
		nb  = lavaBoxes
		ppb = lavaPPB
	)
	es := int32(e.size)
	b := asm.New(e.Letter()+"lava", opt)

	tid := b.R()
	box := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(box, isa.SrCtaidX)

	me := b.R()
	b.IMad(me, isa.R(box), isa.ImmInt(ppb), isa.R(tid))
	myAddr := b.R()
	b.IMad(myAddr, isa.R(me), isa.ImmInt(4*es), isa.ImmInt(int32(pBase)))

	xi, yi, zi := e.Val(b), e.Val(b), e.Val(b)
	e.Load(b, xi, myAddr, 0)
	e.Load(b, yi, myAddr, uint32(es))
	e.Load(b, zi, myAddr, uint32(2*es))

	fx, fy, fz := e.Val(b), e.Val(b), e.Val(b)
	e.Imm(b, fx, 0)
	e.Imm(b, fy, 0)
	e.Imm(b, fz, 0)

	dx, dy, dz := e.Val(b), e.Val(b), e.Val(b)
	r2 := e.Val(b)
	zero := e.Val(b)
	e.Imm(b, zero, 0)
	w := e.Val(b)
	qv := e.Val(b)
	qw := e.Val(b)
	// FP32 scratch for the SFU path.
	s32 := b.R()

	d := b.R()
	ob := b.R()
	oAddr := b.R()
	b.ForCounter(d, 0, 3, asm.LoopOpts{}, func() {
		// Neighbour box index, clamped to [0, nb-1].
		b.IAdd(ob, isa.R(box), isa.R(d))
		b.IAdd(ob, isa.R(ob), isa.ImmInt(-1))
		b.IMax(ob, isa.R(ob), isa.ImmInt(0))
		b.IMin(ob, isa.R(ob), isa.ImmInt(nb-1))
		b.IMul(oAddr, isa.R(ob), isa.ImmInt(ppb*4)) // element index of box start
		b.IMad(oAddr, isa.R(oAddr), isa.ImmInt(es), isa.ImmInt(int32(pBase)))

		q := b.R()
		b.ForCounter(q, 0, ppb, asm.LoopOpts{Unroll: 2}, func() {
			e.Load(b, dx, oAddr, 0)
			e.Load(b, dy, oAddr, uint32(es))
			e.Load(b, dz, oAddr, uint32(2*es))
			e.Load(b, qv, oAddr, uint32(3*es))
			e.Sub(b, dx, dx, xi)
			e.Sub(b, dy, dy, yi)
			e.Sub(b, dz, dz, zi)
			e.Mul(b, r2, dx, dx)
			e.FMA(b, r2, dy, dy, r2)
			e.FMA(b, r2, dz, dz, r2)
			e.Sub(b, r2, zero, r2) // -r2
			switch e.dt {
			case isa.F32:
				b.Mufu(isa.MufuEX2, w, r2)
			case isa.F16:
				b.F2F(s32, r2, isa.F16, isa.F32)
				b.Mufu(isa.MufuEX2, s32, s32)
				b.F2F(w, s32, isa.F32, isa.F16)
			case isa.F64:
				b.F2F(s32, r2, isa.F64, isa.F32)
				b.Mufu(isa.MufuEX2, s32, s32)
				b.F2F(w, s32, isa.F32, isa.F64)
			}
			e.Mul(b, qw, w, qv)
			e.FMA(b, fx, qw, dx, fx)
			e.FMA(b, fy, qw, dy, fy)
			e.FMA(b, fz, qw, dz, fz)
			b.IAdd(oAddr, isa.R(oAddr), isa.ImmInt(4*es))
		})
	})

	out := b.R()
	b.IMad(out, isa.R(me), isa.ImmInt(4*es), isa.ImmInt(int32(fBase)))
	e.Store(b, out, 0, fx)
	e.Store(b, out, uint32(es), fy)
	e.Store(b, out, uint32(2*es), fz)
	b.Exit()
	return b.Build()
}
