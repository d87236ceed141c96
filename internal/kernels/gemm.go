package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// GEMM is the optimized, library-style matrix multiplication: shared-
// memory k-tiles plus per-thread register micro-tiles, "tuned for
// selected input size, precision, and device configuration" (§III-B).
// Like CUBLAS, each precision instantiates a different kernel: the FP16
// and FP32 variants use an 8x8 register tile, the FP64 variant a 4x4
// tile (half the register budget per value). The register appetite pins
// occupancy near the bottom of Table I while the shared-memory inner
// loop keeps issue IPC among the highest — exactly the GEMM signature
// the paper's prediction model leans on.
const gemmN = 64

type gemmShape struct {
	microM, microN int // per-thread micro-tile
	thrM, thrN     int // thread grid within a block
	kt             int // k-tile depth
}

func gemmShapeFor(dt isa.DType) gemmShape {
	if dt == isa.F64 {
		return gemmShape{microM: 4, microN: 4, thrM: 4, thrN: 8, kt: 8}
	}
	return gemmShape{microM: 8, microN: 8, thrM: 4, thrN: 8, kt: 8}
}

// GEMMBuilder returns the builder for the given precision.
func GEMMBuilder(dt isa.DType) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		return buildGEMM(dev, opt, ElemFor(dt))
	}
}

func buildGEMM(dev *device.Device, opt asm.OptLevel, e Elem) (*Instance, error) {
	const n = gemmN
	sh := gemmShapeFor(e.dt)
	tileM := sh.microM * sh.thrM // block tile rows
	tileN := sh.microN * sh.thrN // block tile cols

	g := mem.NewGlobal()
	aBase, err := g.Alloc(n * n * int(e.size))
	if err != nil {
		return nil, err
	}
	bBase, _ := g.Alloc(n * n * int(e.size))
	cBase, _ := g.Alloc(n * n * int(e.size))

	r := dataRNG(0x6e33 + uint64(e.dt))
	A := make([]hval, n*n)
	B := make([]hval, n*n)
	for i := range A {
		A[i] = e.round(randUnit(r, -1, 1))
		B[i] = e.round(randUnit(r, -1, 1))
	}
	e.writeSlice(g, aBase, A)
	e.writeSlice(g, bBase, B)

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

	prog, err := buildGEMMKernel(opt, e, sh, n, aBase, bBase, cBase)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:   e.Letter() + "GEMM",
		Dev:    dev,
		Global: g,
		Launches: []Launch{{
			Prog:         prog,
			GridX:        n / tileN,
			GridY:        n / tileM,
			BlockThreads: sh.thrM * sh.thrN,
		}},
		Check:  checkWords(cBase, e.expectWords(C)),
		Output: &OutputRegion{Base: cBase, Rows: n, Cols: n, DType: e.dt},
	}, nil
}

func buildGEMMKernel(opt asm.OptLevel, e Elem, sh gemmShape, n int, aBase, bBase, cBase uint32) (*isa.Program, error) {
	tileM := sh.microM * sh.thrM
	tileN := sh.microN * sh.thrN
	threads := sh.thrM * sh.thrN
	es := int32(e.size)

	b := asm.New(e.Letter()+"gemm_"+map[bool]string{true: "nn4x4", false: "nn8x8"}[e.dt == isa.F64], opt)
	shA := b.AllocShared(tileM * sh.kt * int(e.size))
	shB := b.AllocShared(sh.kt * tileN * int(e.size))

	tid := b.R()
	btx := b.R()
	bty := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(btx, isa.SrCtaidX)
	b.S2R(bty, isa.SrCtaidY)

	// Thread grid coordinates: tr = tid / thrN, tc = tid % thrN
	// (thrN is 8, a power of two).
	tr := b.R()
	tc := b.R()
	b.Shr(tr, isa.R(tid), isa.ImmInt(3))
	b.And(tc, isa.R(tid), isa.ImmInt(7))

	// Global load cursors, advanced per k-tile.
	// A tile: tileM rows x kt cols, row-major; each thread stages
	// aPerThr consecutive elements starting at linear index tid*aPerThr.
	aPerThr := tileM * sh.kt / threads
	bPerThr := sh.kt * tileN / threads
	tmp := b.R()
	aRow := b.R()
	aCol := b.R()
	b.IMul(tmp, isa.R(tid), isa.ImmInt(int32(aPerThr)))
	b.Shr(aRow, isa.R(tmp), isa.ImmInt(shiftFor(sh.kt)))
	b.And(aCol, isa.R(tmp), isa.ImmInt(int32(sh.kt-1)))
	aG := b.R()
	b.IMad(aG, isa.R(bty), isa.ImmInt(int32(tileM)), isa.R(aRow))
	b.IMad(aG, isa.R(aG), isa.ImmInt(int32(n)), isa.R(aCol))
	b.IMad(aG, isa.R(aG), isa.ImmInt(es), isa.ImmInt(int32(aBase)))
	// Shared store cursor for A (tmp still holds tid*aPerThr).
	aS := b.R()
	b.IMad(aS, isa.R(tmp), isa.ImmInt(es), isa.ImmInt(int32(shA)))
	// B tile: kt rows x tileN cols; thread loads bPerThr consecutive
	// elements of one row: bRow = (tid*bPerThr)/tileN, bCol offset.
	bRow := b.R()
	bCol := b.R()
	b.IMul(tmp, isa.R(tid), isa.ImmInt(int32(bPerThr)))
	b.Shr(bRow, isa.R(tmp), isa.ImmInt(shiftFor(tileN)))
	b.And(bCol, isa.R(tmp), isa.ImmInt(int32(tileN-1)))
	bG := b.R()
	b.IMad(tmp, isa.R(bRow), isa.ImmInt(int32(n)), isa.R(bCol))
	b.IMad(bG, isa.R(tmp), isa.ImmInt(es), isa.ImmInt(int32(bBase)))
	b.IMad(bG, isa.R(btx), isa.ImmInt(int32(tileN)*es), isa.R(bG))

	// Shared store cursor for B (constant per thread).
	bS := b.R()
	b.IMad(tmp, isa.R(bRow), isa.ImmInt(int32(tileN)), isa.R(bCol))
	b.IMad(bS, isa.R(tmp), isa.ImmInt(es), isa.ImmInt(int32(shB)))

	// Shared read bases: aRd = shA + tr*microM*kt*es ; bRd = shB + tc*microN*es.
	aRd := b.R()
	b.IMad(aRd, isa.R(tr), isa.ImmInt(int32(sh.microM*sh.kt)*es), isa.ImmInt(int32(shA)))
	bRd := b.R()
	b.IMad(bRd, isa.R(tc), isa.ImmInt(int32(sh.microN)*es), isa.ImmInt(int32(shB)))

	// Accumulators and fragments.
	accRegs := sh.microM * sh.microN
	var acc []isa.Reg
	for i := 0; i < accRegs; i++ {
		v := e.Val(b)
		e.Imm(b, v, 0)
		acc = append(acc, v)
	}
	var aF, bF []isa.Reg
	for i := 0; i < sh.microM; i++ {
		aF = append(aF, e.Val(b))
	}
	for j := 0; j < sh.microN; j++ {
		bF = append(bF, e.Val(b))
	}
	// Rotating staging registers keep the global->shared copies pipelined
	// instead of serializing on one register.
	var stage []isa.Reg
	for i := 0; i < 4; i++ {
		stage = append(stage, e.Val(b))
	}

	kt := b.R()
	b.ForCounter(kt, 0, int32(n/sh.kt), asm.LoopOpts{}, func() {
		// Stage tiles into shared memory: issue a batch of loads, then
		// the matching stores.
		for i := 0; i < aPerThr; i += len(stage) {
			for s := 0; s < len(stage) && i+s < aPerThr; s++ {
				e.Load(b, stage[s], aG, uint32(i+s)*uint32(es))
			}
			for s := 0; s < len(stage) && i+s < aPerThr; s++ {
				e.StoreShared(b, aS, uint32(i+s)*uint32(es), stage[s])
			}
		}
		for i := 0; i < bPerThr; i += len(stage) {
			for s := 0; s < len(stage) && i+s < bPerThr; s++ {
				e.Load(b, stage[s], bG, uint32(i+s)*uint32(es))
			}
			for s := 0; s < len(stage) && i+s < bPerThr; s++ {
				e.StoreShared(b, bS, uint32(i+s)*uint32(es), stage[s])
			}
		}
		b.IAdd(aG, isa.R(aG), isa.ImmInt(int32(sh.kt)*es))
		b.IAdd(bG, isa.R(bG), isa.ImmInt(int32(sh.kt*n)*es))
		b.Bar()
		// Inner product over the k-tile, fully unrolled so the shared
		// loads use immediate offsets.
		for kk := 0; kk < sh.kt; kk++ {
			for i := 0; i < sh.microM; i++ {
				e.LoadShared(b, aF[i], aRd, uint32((i*sh.kt+kk)*int(e.size)))
			}
			for j := 0; j < sh.microN; j++ {
				e.LoadShared(b, bF[j], bRd, uint32((kk*tileN+j)*int(e.size)))
			}
			for i := 0; i < sh.microM; i++ {
				for j := 0; j < sh.microN; j++ {
					e.FMA(b, acc[i*sh.microN+j], aF[i], bF[j], acc[i*sh.microN+j])
				}
			}
		}
		b.Bar()
	})

	// Store the micro-tile: row = bty*tileM + tr*microM + i,
	// col = btx*tileN + tc*microN + j.
	rowBase := b.R()
	b.IMad(rowBase, isa.R(bty), isa.ImmInt(int32(tileM)), isa.R(isa.RZ))
	b.IMad(rowBase, isa.R(tr), isa.ImmInt(int32(sh.microM)), isa.R(rowBase))
	colBase := b.R()
	b.IMad(colBase, isa.R(btx), isa.ImmInt(int32(tileN)), isa.R(isa.RZ))
	b.IMad(colBase, isa.R(tc), isa.ImmInt(int32(sh.microN)), isa.R(colBase))
	cAddr := b.R()
	rr := b.R()
	for i := 0; i < sh.microM; i++ {
		b.IAdd(rr, isa.R(rowBase), isa.ImmInt(int32(i)))
		b.IMad(cAddr, isa.R(rr), isa.ImmInt(int32(n)), isa.R(colBase))
		b.IMad(cAddr, isa.R(cAddr), isa.ImmInt(es), isa.ImmInt(int32(cBase)))
		for j := 0; j < sh.microN; j++ {
			e.Store(b, cAddr, uint32(j*int(e.size)), acc[i*sh.microN+j])
		}
	}
	b.Exit()
	return b.Build()
}

// shiftFor returns log2(v) for the power-of-two tile widths used here.
func shiftFor(v int) int32 {
	s := int32(0)
	for 1<<s < v {
		s++
	}
	return s
}
