package kernels

import (
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// LUD is the Rodinia LU-decomposition benchmark: an in-place Doolittle
// factorization (no pivoting; the input is made diagonally dominant).
// Per pivot k, one kernel scales the L column and a second updates the
// trailing submatrix with the pivot row staged in shared memory. The
// result overwrites A with the combined L\U factors.
const ludN = 24

// LUDBuilder returns the LU-decomposition builder.
func LUDBuilder() Builder {
	return buildLUD
}

func buildLUD(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const n = ludN
	g := mem.NewGlobal()
	aBase, err := g.Alloc(n * n * 4)
	if err != nil {
		return nil, err
	}
	r := dataRNG(0x10d)
	A := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			A[i*n+j] = float32(randUnit(r, 0.5, 2))
		}
		A[i*n+i] += 8
	}
	for i, v := range A {
		g.SetWord(aBase+uint32(i*4), math.Float32bits(v))
	}

	ref := append([]float32(nil), A...)
	rcp := func(x float32) float32 { return float32(1 / float64(x)) }
	for k := 0; k < n-1; k++ {
		inv := rcp(ref[k*n+k])
		for i := k + 1; i < n; i++ {
			ref[i*n+k] = ref[i*n+k] * inv
		}
		for i := k + 1; i < n; i++ {
			l := ref[i*n+k]
			for j := k + 1; j < n; j++ {
				ref[i*n+j] = float32(math.FMA(float64(-l), float64(ref[k*n+j]), float64(ref[i*n+j])))
			}
		}
	}

	var launches []Launch
	for k := 0; k < n-1; k++ {
		col, err := buildLUDScale(opt, k, n, aBase)
		if err != nil {
			return nil, err
		}
		upd, err := buildLUDUpdate(opt, k, n, aBase)
		if err != nil {
			return nil, err
		}
		launches = append(launches,
			Launch{Prog: col, GridX: 1, GridY: 1, BlockThreads: 32},
			Launch{Prog: upd, GridX: 1, GridY: n, BlockThreads: 32},
		)
	}
	want := make([]uint32, n*n)
	for i, v := range ref {
		want[i] = math.Float32bits(v)
	}
	return &Instance{
		Name:     "FLUD",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(aBase, want),
		Output:   &OutputRegion{Base: aBase, Rows: n, Cols: n, DType: isa.F32},
	}, nil
}

// buildLUDScale divides the pivot column below the diagonal in place.
func buildLUDScale(opt asm.OptLevel, k, n int, aBase uint32) (*isa.Program, error) {
	b := asm.New("lud_scale", opt)
	tid := b.R()
	b.S2R(tid, isa.SrTidX)
	i := b.R()
	b.IAdd(i, isa.R(tid), isa.ImmInt(int32(k+1)))
	p := b.P()
	b.ISetp(p, isa.CmpLT, isa.R(i), isa.ImmInt(int32(n)))
	b.Guarded(p, false, func() {
		pvAddr := b.R()
		b.MovImm(pvAddr, aBase+uint32((k*n+k)*4))
		akk := b.R()
		b.Ldg(akk, pvAddr, 0)
		inv := b.R()
		b.Mufu(isa.MufuRCP, inv, akk)
		addr := b.R()
		b.IMad(addr, isa.R(i), isa.ImmInt(int32(n)*4), isa.ImmInt(int32(aBase)+int32(k*4)))
		v := b.R()
		b.Ldg(v, addr, 0)
		b.FMul(v, isa.R(v), isa.R(inv))
		b.Stg(addr, 0, v)
	})
	b.Exit()
	return b.Build()
}

// buildLUDUpdate subtracts l*pivotRow from each trailing row, with the
// pivot row staged in shared memory by the block.
func buildLUDUpdate(opt asm.OptLevel, k, n int, aBase uint32) (*isa.Program, error) {
	b := asm.New("lud_update", opt)
	shRow := b.AllocShared(n * 4)

	tid := b.R()
	i := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(i, isa.SrCtaidY)

	// Stage pivot row columns (k+1..n) into shared, one column per thread.
	j0 := b.R()
	b.IAdd(j0, isa.R(tid), isa.ImmInt(int32(k+1)))
	pLd := b.P()
	b.ISetp(pLd, isa.CmpLT, isa.R(j0), isa.ImmInt(int32(n)))
	b.Guarded(pLd, false, func() {
		src := b.R()
		b.IMad(src, isa.R(j0), isa.ImmInt(4), isa.ImmInt(int32(aBase)+int32(k*n*4)))
		v := b.R()
		b.Ldg(v, src, 0)
		dst := b.R()
		b.IMad(dst, isa.R(j0), isa.ImmInt(4), isa.ImmInt(int32(shRow)))
		b.Sts(dst, 0, v)
	})
	b.Bar()

	pRow := b.P()
	b.ISetp(pRow, isa.CmpGT, isa.R(i), isa.ImmInt(int32(k)))
	b.If(pRow, false, func() {
		l := b.R()
		lAddr := b.R()
		b.IMad(lAddr, isa.R(i), isa.ImmInt(int32(n)*4), isa.ImmInt(int32(aBase)+int32(k*4)))
		b.Ldg(l, lAddr, 0)
		negl := b.R()
		b.FMul(negl, isa.R(l), isa.Imm(math.Float32bits(-1)))
		j := b.R()
		b.IAdd(j, isa.R(tid), isa.ImmInt(int32(k+1)))
		pj := b.P()
		pv := b.R()
		av := b.R()
		sAddr := b.R()
		aAddr := b.R()
		b.Label("lud_loop")
		b.ISetp(pj, isa.CmpLT, isa.R(j), isa.ImmInt(int32(n)))
		b.Guarded(pj, false, func() {
			b.IMad(sAddr, isa.R(j), isa.ImmInt(4), isa.ImmInt(int32(shRow)))
			b.Lds(pv, sAddr, 0)
			b.IMad(aAddr, isa.R(i), isa.ImmInt(int32(n)*4), isa.ImmInt(int32(aBase)))
			b.IMad(aAddr, isa.R(j), isa.ImmInt(4), isa.R(aAddr))
			b.Ldg(av, aAddr, 0)
			b.FFma(av, isa.R(negl), isa.R(pv), isa.R(av))
			b.Stg(aAddr, 0, av)
		})
		b.IAdd(j, isa.R(j), isa.ImmInt(32))
		b.ISetp(pj, isa.CmpLT, isa.R(j), isa.ImmInt(int32(n)))
		b.BraIf(pj, false, "lud_loop")
	})
	b.Exit()
	return b.Build()
}
