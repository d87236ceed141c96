package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Hotspot is the Rodinia thermal stencil: each cell relaxes toward the
// average of its four neighbours plus a power term, iterated over the
// grid with ping-pong buffers. One block processes one row, staging the
// row in shared memory so east/west neighbours come from the scratchpad.
//
// The iterative structure matters for the reproduction: the paper blames
// HHotspot's 27x prediction overestimate on iteration "smoothing" faulty
// half-precision values (§VII-A), so the kernel must actually iterate.
const (
	hotspotW     = 64
	hotspotH     = 32
	hotspotIters = 4
	hotspotK     = 0.2
	hotspotPw    = 0.1
)

// HotspotBuilder returns the builder for the given precision.
func HotspotBuilder(dt isa.DType) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		return buildHotspot(dev, opt, ElemFor(dt))
	}
}

func buildHotspot(dev *device.Device, opt asm.OptLevel, e Elem) (*Instance, error) {
	const w, h = hotspotW, hotspotH
	g := mem.NewGlobal()
	tA, err := g.Alloc(w * h * int(e.size))
	if err != nil {
		return nil, err
	}
	tB, _ := g.Alloc(w * h * int(e.size))
	pBase, _ := g.Alloc(w * h * int(e.size))

	r := dataRNG(0x407 + uint64(e.dt))
	T := make([]hval, w*h)
	P := make([]hval, w*h)
	for i := range T {
		T[i] = e.round(randUnit(r, 20, 80))
		P[i] = e.round(randUnit(r, 0, 1))
	}
	e.writeSlice(g, tA, T)
	e.writeSlice(g, pBase, P)

	// Host reference, same operation order as the kernel.
	cur := append([]hval(nil), T...)
	next := make([]hval, w*h)
	kc := e.round(hotspotK)
	pw := e.round(hotspotPw)
	four := e.round(4)
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	for it := 0; it < hotspotIters; it++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				n := cur[clamp(y-1, 0, h-1)*w+x]
				s := cur[clamp(y+1, 0, h-1)*w+x]
				eV := cur[y*w+clamp(x+1, 0, w-1)]
				wV := cur[y*w+clamp(x-1, 0, w-1)]
				t := cur[y*w+x]
				sum := e.hAdd(e.hAdd(n, s), e.hAdd(eV, wV))
				diff := e.hSub(sum, e.hMul(t, four))
				out := e.hFMA(diff, kc, t)
				out = e.hFMA(P[y*w+x], pw, out)
				next[y*w+x] = out
			}
		}
		cur, next = next, cur
	}

	prog, err := buildHotspotKernel(opt, e, tA, tB, pBase)
	if err != nil {
		return nil, err
	}
	prog2, err := buildHotspotKernel(opt, e, tB, tA, pBase)
	if err != nil {
		return nil, err
	}

	var launches []Launch
	for it := 0; it < hotspotIters; it++ {
		p := prog
		if it%2 == 1 {
			p = prog2
		}
		launches = append(launches, Launch{Prog: p, GridX: 1, GridY: h, BlockThreads: w})
	}
	outBase := tA
	if hotspotIters%2 == 1 {
		outBase = tB
	}
	return &Instance{
		Name:     e.Letter() + "HOTSPOT",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(outBase, e.expectWords(cur)),
		Output:   &OutputRegion{Base: outBase, Rows: h, Cols: w, DType: e.dt},
	}, nil
}

// buildHotspotKernel emits one relaxation step from src to dst.
func buildHotspotKernel(opt asm.OptLevel, e Elem, src, dst, pBase uint32) (*isa.Program, error) {
	const w, h = hotspotW, hotspotH
	b := asm.New(e.Letter()+"hotspot_step", opt)
	shRow := b.AllocShared(w * int(e.size))

	col := b.R()
	row := b.R()
	b.S2R(col, isa.SrTidX)
	b.S2R(row, isa.SrCtaidY)

	// idx = row*w + col; own temperature -> shared
	idx := b.R()
	b.IMad(idx, isa.R(row), isa.ImmInt(w), isa.R(col))
	tAddr := emitAddr(b, idx, src, e.size)
	t := e.Val(b)
	e.Load(b, t, tAddr, 0)
	shAddr := emitAddr(b, col, shRow, e.size)
	e.StoreShared(b, shAddr, 0, t)
	b.Bar()

	// North/south rows from global, clamped at the boundary.
	rn := b.R()
	rs := b.R()
	b.IAdd(rn, isa.R(row), isa.ImmInt(-1))
	b.IMax(rn, isa.R(rn), isa.ImmInt(0))
	b.IAdd(rs, isa.R(row), isa.ImmInt(1))
	b.IMin(rs, isa.R(rs), isa.ImmInt(h-1))
	nIdx := b.R()
	b.IMad(nIdx, isa.R(rn), isa.ImmInt(w), isa.R(col))
	nAddr := emitAddr(b, nIdx, src, e.size)
	nV := e.Val(b)
	e.Load(b, nV, nAddr, 0)
	sIdx := b.R()
	b.IMad(sIdx, isa.R(rs), isa.ImmInt(w), isa.R(col))
	sAddr := emitAddr(b, sIdx, src, e.size)
	sV := e.Val(b)
	e.Load(b, sV, sAddr, 0)

	// East/west from shared, clamped.
	ce := b.R()
	cw := b.R()
	b.IAdd(ce, isa.R(col), isa.ImmInt(1))
	b.IMin(ce, isa.R(ce), isa.ImmInt(w-1))
	b.IAdd(cw, isa.R(col), isa.ImmInt(-1))
	b.IMax(cw, isa.R(cw), isa.ImmInt(0))
	eAddr := emitAddr(b, ce, shRow, e.size)
	wAddr := emitAddr(b, cw, shRow, e.size)
	eV := e.Val(b)
	wV := e.Val(b)
	e.LoadShared(b, eV, eAddr, 0)
	e.LoadShared(b, wV, wAddr, 0)

	// out = T + K*((N+S+E+W) - 4T) + Pw*P
	sum := e.Val(b)
	tmp := e.Val(b)
	e.Add(b, sum, nV, sV)
	e.Add(b, tmp, eV, wV)
	e.Add(b, sum, sum, tmp)
	four := e.Val(b)
	e.Imm(b, four, 4)
	t4 := e.Val(b)
	e.Mul(b, t4, t, four)
	diff := e.Val(b)
	e.Sub(b, diff, sum, t4)
	kc := e.Val(b)
	e.Imm(b, kc, hotspotK)
	out := e.Val(b)
	e.FMA(b, out, diff, kc, t)
	pAddr := emitAddr(b, idx, pBase, e.size)
	pV := e.Val(b)
	e.Load(b, pV, pAddr, 0)
	pc := e.Val(b)
	e.Imm(b, pc, hotspotPw)
	e.FMA(b, out, pV, pc, out)

	dAddr := emitAddr(b, idx, dst, e.size)
	e.Store(b, dAddr, 0, out)
	b.Exit()
	return b.Build()
}
