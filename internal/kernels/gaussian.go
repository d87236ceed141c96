package kernels

import (
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// Gaussian is the Rodinia Gaussian-elimination benchmark: for each pivot
// column k, the Fan1 kernel computes the multiplier column and the Fan2
// kernel updates the trailing augmented matrix. The grids are tiny and
// shrink as elimination proceeds, which is why Table I reports a low
// occupancy (0.34) for this code. FP32 only, with the division realized
// as MUFU.RCP + multiply, the GPU fast-math idiom.
const gaussN = 24

// GaussianBuilder returns the Gaussian-elimination builder.
func GaussianBuilder() Builder {
	return buildGaussian
}

func buildGaussian(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const n = gaussN
	const cols = n + 1 // augmented with the RHS vector
	g := mem.NewGlobal()
	aBase, err := g.Alloc(n * cols * 4)
	if err != nil {
		return nil, err
	}
	mBase, _ := g.Alloc(n * n * 4) // multiplier matrix

	r := dataRNG(0x9a55)
	A := make([]float32, n*cols)
	for i := 0; i < n; i++ {
		for j := 0; j < cols; j++ {
			A[i*cols+j] = float32(randUnit(r, 0.5, 2))
		}
		A[i*cols+i] += 8 // diagonally dominant: no pivoting needed
	}
	for i, v := range A {
		g.SetWord(aBase+uint32(i*4), math.Float32bits(v))
	}

	// Host reference with identical fast-math operations.
	ref := append([]float32(nil), A...)
	rcp := func(x float32) float32 { return float32(1 / float64(x)) }
	for k := 0; k < n-1; k++ {
		inv := rcp(ref[k*cols+k])
		m := make([]float32, n)
		for i := k + 1; i < n; i++ {
			m[i] = ref[i*cols+k] * inv
		}
		for i := k + 1; i < n; i++ {
			for j := k; j < cols; j++ {
				ref[i*cols+j] = float32(math.FMA(float64(-m[i]), float64(ref[k*cols+j]), float64(ref[i*cols+j])))
			}
		}
	}

	var launches []Launch
	for k := 0; k < n-1; k++ {
		fan1, err := buildFan1(opt, k, n, cols, aBase, mBase)
		if err != nil {
			return nil, err
		}
		fan2, err := buildFan2(opt, k, n, cols, aBase, mBase)
		if err != nil {
			return nil, err
		}
		launches = append(launches,
			Launch{Prog: fan1, GridX: 1, GridY: 1, BlockThreads: 32},
			Launch{Prog: fan2, GridX: 1, GridY: n, BlockThreads: 32},
		)
	}
	want := make([]uint32, n*cols)
	for i, v := range ref {
		want[i] = math.Float32bits(v)
	}
	return &Instance{
		Name:     "FGAUSSIAN",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(aBase, want),
		Output:   &OutputRegion{Base: aBase, Rows: n, Cols: cols, DType: isa.F32},
	}, nil
}

// buildFan1 computes m[i] = A[i][k] / A[k][k] for i in (k, n).
func buildFan1(opt asm.OptLevel, k, n, cols int, aBase, mBase uint32) (*isa.Program, error) {
	b := asm.New("fan1", opt)
	tid := b.R()
	b.S2R(tid, isa.SrTidX)
	i := b.R()
	b.IAdd(i, isa.R(tid), isa.ImmInt(int32(k+1)))
	p := b.P()
	b.ISetp(p, isa.CmpLT, isa.R(i), isa.ImmInt(int32(n)))
	b.Guarded(p, false, func() {
		akk := b.R()
		pv := b.R()
		b.MovImm(pv, aBase+uint32((k*cols+k)*4))
		b.Ldg(akk, pv, 0)
		inv := b.R()
		b.Mufu(isa.MufuRCP, inv, akk)
		aik := b.R()
		addr := b.R()
		b.IMad(addr, isa.R(i), isa.ImmInt(int32(cols)*4), isa.ImmInt(int32(aBase)+int32(k*4)))
		b.Ldg(aik, addr, 0)
		m := b.R()
		b.FMul(m, isa.R(aik), isa.R(inv))
		mAddr := b.R()
		b.IMad(mAddr, isa.R(i), isa.ImmInt(int32(n)*4), isa.ImmInt(int32(mBase)+int32(k*4)))
		b.Stg(mAddr, 0, m)
	})
	b.Exit()
	return b.Build()
}

// buildFan2 computes A[i][j] -= m[i] * A[k][j] for i in (k, n), j in [k, cols).
// One block per row i (CTAID.Y); threads stride across the columns.
func buildFan2(opt asm.OptLevel, k, n, cols int, aBase, mBase uint32) (*isa.Program, error) {
	b := asm.New("fan2", opt)
	tid := b.R()
	i := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(i, isa.SrCtaidY)

	pRow := b.P()
	b.ISetp(pRow, isa.CmpGT, isa.R(i), isa.ImmInt(int32(k)))
	b.If(pRow, false, func() {
		m := b.R()
		mAddr := b.R()
		b.IMad(mAddr, isa.R(i), isa.ImmInt(int32(n)*4), isa.ImmInt(int32(mBase)+int32(k*4)))
		b.Ldg(m, mAddr, 0)
		// Each thread walks j = k + tid, k + tid + 32, ...
		j := b.R()
		b.IAdd(j, isa.R(tid), isa.ImmInt(int32(k)))
		pj := b.P()
		kv := b.R()
		av := b.R()
		kAddr := b.R()
		aAddr := b.R()
		b.Label("fan2_loop")
		b.ISetp(pj, isa.CmpLT, isa.R(j), isa.ImmInt(int32(cols)))
		b.Guarded(pj, false, func() {
			b.IMad(kAddr, isa.R(j), isa.ImmInt(4), isa.ImmInt(int32(aBase)+int32(k*cols*4)))
			b.Ldg(kv, kAddr, 0)
			b.IMad(aAddr, isa.R(i), isa.ImmInt(int32(cols)*4), isa.ImmInt(int32(aBase)))
			b.IMad(aAddr, isa.R(j), isa.ImmInt(4), isa.R(aAddr))
			b.Ldg(av, aAddr, 0)
			neg := b.R()
			b.FMul(neg, isa.R(m), isa.ImmInt(int32(math.Float32bits(-1))))
			b.FFma(av, isa.R(neg), isa.R(kv), isa.R(av))
			b.Stg(aAddr, 0, av)
		})
		b.IAdd(j, isa.R(j), isa.ImmInt(32))
		b.ISetp(pj, isa.CmpLT, isa.R(j), isa.ImmInt(int32(cols)))
		b.BraIf(pj, false, "fan2_loop")
	})
	b.Exit()
	return b.Build()
}
