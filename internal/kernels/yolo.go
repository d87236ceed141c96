package kernels

import (
	"fmt"
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/cnn"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// YOLO lowers the cnn package's YOLOv2-mini / YOLOv3-mini networks onto
// the simulator: every convolution becomes an im2col kernel (for 3x3)
// followed by a GEMM-formulated convolution kernel with fused bias and
// leaky ReLU, plus max-pool and residual kernels. As the paper notes,
// the bulk of the dynamic work is matrix multiplication (§VI), and the
// SDC criterion is detection-equivalence, not bitwise equality.

// YOLOBuilder returns the builder for one network and precision.
// v3 selects YOLOv3-mini; dt must be F16 or F32.
func YOLOBuilder(v3 bool, dt isa.DType) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		spec := cnn.V2Mini()
		if v3 {
			spec = cnn.V3Mini()
		}
		if dt != isa.F16 && dt != isa.F32 {
			return nil, fmt.Errorf("kernels: YOLO supports F16/F32, not %v", dt)
		}
		return buildYOLO(dev, opt, ElemFor(dt), spec)
	}
}

func buildYOLO(dev *device.Device, opt asm.OptLevel, e Elem, spec cnn.Spec) (*Instance, error) {
	round := func(v float64) float64 { return float64(e.round(hval(v))) }
	weights := cnn.GenerateWeights(spec, round)
	input := cnn.GenerateInput(spec, round)
	ar := cnn.Arith{
		FMA:   func(a, b, c float64) float64 { return float64(e.hFMA(hval(a), hval(b), hval(c))) },
		Add:   func(a, b float64) float64 { return float64(e.hAdd(hval(a), hval(b))) },
		Mul:   func(a, b float64) float64 { return float64(e.hMul(hval(a), hval(b))) },
		Round: round,
	}
	outs, err := cnn.Forward(spec, weights, input, ar)
	if err != nil {
		return nil, err
	}
	dims := spec.Dims()
	headDims := dims[len(dims)-1]
	cells := headDims[1] * headDims[2]
	golden := cnn.Decode(outs[len(outs)-1], spec.Classes, cells)

	g := mem.NewGlobal()
	es := int(e.size)
	toH := func(vs []float64) []hval {
		out := make([]hval, len(vs))
		for i, v := range vs {
			out[i] = hval(v)
		}
		return out
	}

	inBase, err := g.Alloc(len(input) * es)
	if err != nil {
		return nil, err
	}
	e.writeSlice(g, inBase, toH(input))

	// Per-layer output buffers, plus parameter and scratch buffers.
	layerBase := make([]uint32, len(spec.Layers))
	for i, d := range dims {
		layerBase[i], _ = g.Alloc(d[0] * d[1] * d[2] * es)
	}
	wBase := make([]uint32, len(spec.Layers))
	bBase := make([]uint32, len(spec.Layers))
	maxCol := 0
	curH, curW := spec.InH, spec.InW
	for i, l := range spec.Layers {
		if l.Kind == cnn.MaxPool {
			curH, curW = curH/2, curW/2
		}
		if l.Kind != cnn.Conv {
			continue
		}
		wBase[i], _ = g.Alloc(len(weights.Filters[i]) * es)
		e.writeSlice(g, wBase[i], toH(weights.Filters[i]))
		bBase[i], _ = g.Alloc(len(weights.Biases[i]) * es)
		e.writeSlice(g, bBase[i], toH(weights.Biases[i]))
		if l.K == 3 {
			if sz := l.InC * 9 * curH * curW; sz > maxCol {
				maxCol = sz
			}
		}
	}
	colBase, _ := g.Alloc(maxCol * es)

	var launches []Launch
	curH, curW = spec.InH, spec.InW
	curBase := inBase
	curC := spec.InC
	for li, l := range spec.Layers {
		switch l.Kind {
		case cnn.Conv:
			src := curBase
			k := l.InC * l.K * l.K
			n := curH * curW
			if l.K == 3 {
				im, err := buildIm2Col(opt, e, li, l.InC, curH, curW, curBase, colBase)
				if err != nil {
					return nil, err
				}
				launches = append(launches, Launch{Prog: im, GridX: 1, GridY: curH, BlockThreads: curW})
				src = colBase
			}
			conv, err := buildConvGEMM(opt, e, li, k, n, l.Leaky, src, wBase[li], bBase[li], layerBase[li])
			if err != nil {
				return nil, err
			}
			launches = append(launches, Launch{Prog: conv, GridX: 1, GridY: l.OutC, BlockThreads: n})
			curBase, curC = layerBase[li], l.OutC
		case cnn.MaxPool:
			pool, err := buildMaxPool(opt, e, li, curH, curW, curBase, layerBase[li])
			if err != nil {
				return nil, err
			}
			launches = append(launches, Launch{Prog: pool, GridX: curH / 2, GridY: curC, BlockThreads: curW / 2})
			curBase = layerBase[li]
			curH, curW = curH/2, curW/2
		case cnn.Residual:
			res, err := buildResidual(opt, e, li, curH*curW, curBase, layerBase[l.From], layerBase[li])
			if err != nil {
				return nil, err
			}
			launches = append(launches, Launch{Prog: res, GridX: 1, GridY: curC, BlockThreads: curH * curW})
			curBase = layerBase[li]
		}
	}

	headBase := layerBase[len(layerBase)-1]
	classes := spec.Classes
	tol := spec.Tol
	headWords := headDims[0] * cells
	name := e.Letter() + spec.Name
	return &Instance{
		Name:     name,
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check: func(gm *mem.Global) bool {
			head := make([]float64, headWords)
			for i := range head {
				w := gm.Word(headBase + uint32(i*es))
				if e.dt == isa.F16 {
					head[i] = float64(isa.F16ToF32(isa.Float16(w & 0xffff)))
				} else {
					head[i] = float64(math.Float32frombits(w))
				}
			}
			return cnn.SameDetections(golden, cnn.Decode(head, classes, cells), tol)
		},
		// The detection head: one channel per row, one cell per column.
		Output: &OutputRegion{Base: headBase, Rows: headDims[0], Cols: cells, DType: e.dt},
	}, nil
}

// buildIm2Col lowers one CHW feature map into the (C*9) x (H*W) GEMM
// operand with zero padding, one thread per pixel column.
func buildIm2Col(opt asm.OptLevel, e Elem, li, c, h, w int, src, dst uint32) (*isa.Program, error) {
	es := int32(e.size)
	b := asm.New(fmt.Sprintf("%sim2col_l%d", e.Letter(), li), opt)
	x := b.R()
	y := b.R()
	b.S2R(x, isa.SrTidX)
	b.S2R(y, isa.SrCtaidY)
	n := int32(h * w)
	pix := b.R()
	b.IMad(pix, isa.R(y), isa.ImmInt(int32(w)), isa.R(x))

	// Destination cursor walks kidx rows of the column matrix.
	dAddr := b.R()
	b.IMad(dAddr, isa.R(pix), isa.ImmInt(es), isa.ImmInt(int32(dst)))

	sy := b.R()
	sx := b.R()
	guard := b.R()
	tmp := b.R()
	ok := b.P()
	v := e.Val(b)
	sAddr := b.R()
	ci := b.R()
	dy := b.R()
	dx := b.R()
	b.ForCounter(ci, 0, int32(c), asm.LoopOpts{}, func() {
		b.ForCounter(dy, 0, 3, asm.LoopOpts{}, func() {
			b.ForCounter(dx, 0, 3, asm.LoopOpts{}, func() {
				b.IAdd(sy, isa.R(y), isa.R(dy))
				b.IAdd(sy, isa.R(sy), isa.ImmInt(-1))
				b.IAdd(sx, isa.R(x), isa.R(dx))
				b.IAdd(sx, isa.R(sx), isa.ImmInt(-1))
				// In-bounds iff (sy | h-1-sy | sx | w-1-sx) >= 0.
				b.ISub(guard, isa.ImmInt(int32(h-1)), isa.R(sy))
				b.Or(guard, isa.R(guard), isa.R(sy))
				b.ISub(tmp, isa.ImmInt(int32(w-1)), isa.R(sx))
				b.Or(guard, isa.R(guard), isa.R(tmp))
				b.Or(guard, isa.R(guard), isa.R(sx))
				b.ISetp(ok, isa.CmpGE, isa.R(guard), isa.ImmInt(0))
				e.Imm(b, v, 0)
				b.Guarded(ok, false, func() {
					b.IMad(sAddr, isa.R(ci), isa.ImmInt(n), isa.R(isa.RZ))
					b.IMad(sAddr, isa.R(sy), isa.ImmInt(int32(w)), isa.R(sAddr))
					b.IAdd(sAddr, isa.R(sAddr), isa.R(sx))
					b.IMad(sAddr, isa.R(sAddr), isa.ImmInt(es), isa.ImmInt(int32(src)))
					e.Load(b, v, sAddr, 0)
				})
				e.Store(b, dAddr, 0, v)
				b.IAdd(dAddr, isa.R(dAddr), isa.ImmInt(n*es))
			})
		})
	})
	b.Exit()
	return b.Build()
}

// buildConvGEMM emits the GEMM-formulated convolution with fused bias
// and optional leaky ReLU: out[m][x] = leaky(sum_k W[m][k]*col[k][x] + b[m]).
func buildConvGEMM(opt asm.OptLevel, e Elem, li, k, n int, leaky bool, colB, wB, bB, outB uint32) (*isa.Program, error) {
	es := int32(e.size)
	b := asm.New(fmt.Sprintf("%sconv_l%d", e.Letter(), li), opt)
	x := b.R()
	m := b.R()
	b.S2R(x, isa.SrTidX)
	b.S2R(m, isa.SrCtaidY)

	wAddr := b.R()
	b.IMad(wAddr, isa.R(m), isa.ImmInt(int32(k)*es), isa.ImmInt(int32(wB)))
	cAddr := b.R()
	b.IMad(cAddr, isa.R(x), isa.ImmInt(es), isa.ImmInt(int32(colB)))

	acc := e.Val(b)
	wv := e.Val(b)
	cv := e.Val(b)
	e.Imm(b, acc, 0)
	kk := b.R()
	// Group k-iterations so the loads use immediate offsets and the
	// address arithmetic amortizes, as a tuned GEMM inner loop does.
	group := 1
	if k%3 == 0 {
		group = 3
	}
	b.ForCounter(kk, 0, int32(k/group), asm.LoopOpts{}, func() {
		for u := 0; u < group; u++ {
			e.Load(b, wv, wAddr, uint32(int32(u)*es))
			e.Load(b, cv, cAddr, uint32(int32(u*n)*es))
			e.FMA(b, acc, wv, cv, acc)
		}
		b.IAdd(wAddr, isa.R(wAddr), isa.ImmInt(int32(group)*es))
		b.IAdd(cAddr, isa.R(cAddr), isa.ImmInt(int32(group*n)*es))
	})

	bAddr := b.R()
	b.IMad(bAddr, isa.R(m), isa.ImmInt(es), isa.ImmInt(int32(bB)))
	bv := e.Val(b)
	e.Load(b, bv, bAddr, 0)
	e.Add(b, acc, acc, bv)
	if leaky {
		zero := e.Val(b)
		e.Imm(b, zero, 0)
		slope := e.Val(b)
		e.Imm(b, slope, 0.1)
		neg := e.Val(b)
		e.Mul(b, neg, acc, slope)
		p := b.P()
		if e.dt == isa.F16 {
			b.HSetp(p, isa.CmpLT, isa.R(acc), isa.R(zero))
		} else {
			b.FSetp(p, isa.CmpLT, isa.R(acc), isa.R(zero))
		}
		b.Sel(acc, p, isa.R(neg), isa.R(acc))
	}
	oAddr := b.R()
	b.IMad(oAddr, isa.R(m), isa.ImmInt(int32(n)), isa.R(x))
	b.IMad(oAddr, isa.R(oAddr), isa.ImmInt(es), isa.ImmInt(int32(outB)))
	e.Store(b, oAddr, 0, acc)
	b.Exit()
	return b.Build()
}

// buildMaxPool emits the 2x2/stride-2 max pooling: CTAID.Y is the
// channel, CTAID.X the output row, threads the output columns.
func buildMaxPool(opt asm.OptLevel, e Elem, li, h, w int, src, dst uint32) (*isa.Program, error) {
	es := int32(e.size)
	oh, ow := h/2, w/2
	b := asm.New(fmt.Sprintf("%spool_l%d", e.Letter(), li), opt)
	ox := b.R()
	oy := b.R()
	c := b.R()
	b.S2R(ox, isa.SrTidX)
	b.S2R(oy, isa.SrCtaidX)
	b.S2R(c, isa.SrCtaidY)

	// base = src + (c*h*w + 2*oy*w + 2*ox) * es
	addr := b.R()
	b.IMad(addr, isa.R(c), isa.ImmInt(int32(h*w)), isa.R(isa.RZ))
	tmp := b.R()
	b.IMul(tmp, isa.R(oy), isa.ImmInt(int32(2*w)))
	b.IAdd(addr, isa.R(addr), isa.R(tmp))
	b.IMad(addr, isa.R(ox), isa.ImmInt(2), isa.R(addr))
	b.IMad(addr, isa.R(addr), isa.ImmInt(es), isa.ImmInt(int32(src)))

	v0, v1 := e.Val(b), e.Val(b)
	p := b.P()
	max := func(a, s isa.Reg) {
		if e.dt == isa.F16 {
			b.HSetp(p, isa.CmpGT, isa.R(s), isa.R(a))
		} else {
			b.FSetp(p, isa.CmpGT, isa.R(s), isa.R(a))
		}
		b.Sel(a, p, isa.R(s), isa.R(a))
	}
	e.Load(b, v0, addr, 0)
	e.Load(b, v1, addr, uint32(es))
	max(v0, v1)
	e.Load(b, v1, addr, uint32(int32(w)*es))
	max(v0, v1)
	e.Load(b, v1, addr, uint32((int32(w)+1)*es))
	max(v0, v1)

	out := b.R()
	b.IMad(out, isa.R(c), isa.ImmInt(int32(oh*ow)), isa.R(isa.RZ))
	b.IMad(out, isa.R(oy), isa.ImmInt(int32(ow)), isa.R(out))
	b.IAdd(out, isa.R(out), isa.R(ox))
	b.IMad(out, isa.R(out), isa.ImmInt(es), isa.ImmInt(int32(dst)))
	e.Store(b, out, 0, v0)
	b.Exit()
	return b.Build()
}

// buildResidual emits the elementwise residual addition of two feature
// maps: CTAID.Y is the channel, threads the pixels.
func buildResidual(opt asm.OptLevel, e Elem, li, n int, aB, bB2, outB uint32) (*isa.Program, error) {
	es := int32(e.size)
	b := asm.New(fmt.Sprintf("%sres_l%d", e.Letter(), li), opt)
	x := b.R()
	c := b.R()
	b.S2R(x, isa.SrTidX)
	b.S2R(c, isa.SrCtaidY)
	idx := b.R()
	b.IMad(idx, isa.R(c), isa.ImmInt(int32(n)), isa.R(x))
	a1 := b.R()
	b.IMad(a1, isa.R(idx), isa.ImmInt(es), isa.ImmInt(int32(aB)))
	a2 := b.R()
	b.IMad(a2, isa.R(idx), isa.ImmInt(es), isa.ImmInt(int32(bB2)))
	a3 := b.R()
	b.IMad(a3, isa.R(idx), isa.ImmInt(es), isa.ImmInt(int32(outB)))
	u, v := e.Val(b), e.Val(b)
	e.Load(b, u, a1, 0)
	e.Load(b, v, a2, 0)
	e.Add(b, u, u, v)
	e.Store(b, a3, 0, u)
	b.Exit()
	return b.Build()
}
