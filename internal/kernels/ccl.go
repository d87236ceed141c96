package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// CCL is connected-component labeling on a binary image by iterative
// label propagation: every foreground pixel repeatedly takes the minimum
// label among itself and its 4-connected foreground neighbours (Jacobi
// iterations over ping-pong buffers). Background pixels keep the
// sentinel label. Integer-only, one thread per pixel of one image row
// per block — a small, poorly parallelized kernel, matching its Table I
// profile (occupancy 0.11, IPC 0.14) and its role as a code whose beam
// FIT the prediction model badly underestimates (§VII-A).
const (
	cclW     = 24
	cclH     = 24
	cclIters = 12
	cclBG    = 0x7fffffff
)

// CCLBuilder returns the CCL builder.
func CCLBuilder() Builder {
	return buildCCL
}

func buildCCL(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const (
		w = cclW
		h = cclH
	)
	r := dataRNG(0xcc1)
	img := make([]bool, w*h)
	for i := range img {
		img[i] = r.Float64() < 0.62
	}

	// Initial labels: pixel index for foreground, sentinel for background.
	init := make([]int32, w*h)
	for i := range init {
		if img[i] {
			init[i] = int32(i)
		} else {
			init[i] = cclBG
		}
	}

	// Host reference: the same Jacobi iterations.
	cur := append([]int32(nil), init...)
	next := make([]int32, w*h)
	for it := 0; it < cclIters; it++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				if !img[i] {
					next[i] = cclBG
					continue
				}
				best := cur[i]
				if y > 0 && cur[i-w] < best {
					best = cur[i-w]
				}
				if y < h-1 && cur[i+w] < best {
					best = cur[i+w]
				}
				if x > 0 && cur[i-1] < best {
					best = cur[i-1]
				}
				if x < w-1 && cur[i+1] < best {
					best = cur[i+1]
				}
				next[i] = best
			}
		}
		cur, next = next, cur
	}

	g := mem.NewGlobal()
	lA, err := g.Alloc(w * h * 4)
	if err != nil {
		return nil, err
	}
	lB, _ := g.Alloc(w * h * 4)
	for i, v := range init {
		g.SetWord(lA+uint32(i*4), uint32(v))
	}

	progAB, err := buildCCLStep(opt, w, h, lA, lB)
	if err != nil {
		return nil, err
	}
	progBA, err := buildCCLStep(opt, w, h, lB, lA)
	if err != nil {
		return nil, err
	}
	var launches []Launch
	for it := 0; it < cclIters; it++ {
		p := progAB
		if it%2 == 1 {
			p = progBA
		}
		launches = append(launches, Launch{Prog: p, GridX: 1, GridY: h, BlockThreads: w})
	}
	out := lA
	if cclIters%2 == 1 {
		out = lB
	}
	want := make([]uint32, w*h)
	for i, v := range cur {
		want[i] = uint32(v)
	}
	return &Instance{
		Name:     "CCL",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(out, want),
		Output:   &OutputRegion{Base: out, Rows: h, Cols: w, DType: isa.I32},
	}, nil
}

// buildCCLStep emits one label-propagation step from src to dst. The
// boundary handling clamps the neighbour index and relies on the clamped
// neighbour being the pixel itself (min with self is the identity).
func buildCCLStep(opt asm.OptLevel, w, h int, src, dst uint32) (*isa.Program, error) {
	b := asm.New("ccl_step", opt)
	x := b.R()
	y := b.R()
	b.S2R(x, isa.SrTidX)
	b.S2R(y, isa.SrCtaidY)

	i := b.R()
	b.IMad(i, isa.R(y), isa.ImmInt(int32(w)), isa.R(x))
	addr := emitAddr(b, i, src, 4)
	me := b.R()
	b.Ldg(me, addr, 0)

	dAddr := emitAddr(b, i, dst, 4)
	pBG := b.P()
	b.ISetp(pBG, isa.CmpEQ, isa.R(me), isa.ImmInt(cclBG))
	b.IfElse(pBG, false, func() {
		bg := b.R()
		b.MovImm(bg, cclBG)
		b.Stg(dAddr, 0, bg)
	}, func() {
		// Clamped neighbour coordinates.
		best := b.R()
		b.Mov(best, isa.R(me))
		nv := b.R()
		nIdx := b.R()
		nAddr := b.R()
		coord := b.R()
		load := func(setup func()) {
			setup()
			b.IMad(nAddr, isa.R(nIdx), isa.ImmInt(4), isa.ImmInt(int32(src)))
			b.Ldg(nv, nAddr, 0)
			b.IMin(best, isa.R(best), isa.R(nv))
		}
		load(func() { // north: y-1 clamped
			b.IAdd(coord, isa.R(y), isa.ImmInt(-1))
			b.IMax(coord, isa.R(coord), isa.ImmInt(0))
			b.IMad(nIdx, isa.R(coord), isa.ImmInt(int32(w)), isa.R(x))
		})
		load(func() { // south
			b.IAdd(coord, isa.R(y), isa.ImmInt(1))
			b.IMin(coord, isa.R(coord), isa.ImmInt(int32(h-1)))
			b.IMad(nIdx, isa.R(coord), isa.ImmInt(int32(w)), isa.R(x))
		})
		load(func() { // west
			b.IAdd(coord, isa.R(x), isa.ImmInt(-1))
			b.IMax(coord, isa.R(coord), isa.ImmInt(0))
			b.IMad(nIdx, isa.R(y), isa.ImmInt(int32(w)), isa.R(coord))
		})
		load(func() { // east
			b.IAdd(coord, isa.R(x), isa.ImmInt(1))
			b.IMin(coord, isa.R(coord), isa.ImmInt(int32(w-1)))
			b.IMad(nIdx, isa.R(y), isa.ImmInt(int32(w)), isa.R(coord))
		})
		b.Stg(dAddr, 0, best)
	})
	b.Exit()
	return b.Build()
}
