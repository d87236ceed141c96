package kernels

import (
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// GEMM-MMA is the tensor-core GEMM of §V-B: each block is one warp that
// owns a 16x16 output tile and sweeps the K dimension with warp-wide
// HMMA (FP16 inputs) or FMMA (FP32 inputs cast to FP16 on the core)
// instructions, accumulating in FP32. HGEMM-MMA stores A and B as packed
// half2 words; FGEMM-MMA stores them as FP32.
const mmaN = 64

// GEMMMMABuilder returns the builder for the tensor-core GEMM. half
// selects HGEMM-MMA (true) versus FGEMM-MMA (false).
func GEMMMMABuilder(half bool) Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
		return buildGEMMMMA(dev, opt, half)
	}
}

func buildGEMMMMA(dev *device.Device, opt asm.OptLevel, half bool) (*Instance, error) {
	const n = mmaN
	if !dev.HasTensor {
		return nil, errNoTensor(dev)
	}
	g := mem.NewGlobal()
	elSize := 4
	if half {
		elSize = 2
	}
	aBase, err := g.Alloc(n * n * elSize)
	if err != nil {
		return nil, err
	}
	bBase, _ := g.Alloc(n * n * elSize)
	cBase, _ := g.Alloc(n * n * 4)

	r := dataRNG(0x3344)
	A := make([]float32, n*n)
	B := make([]float32, n*n)
	for i := range A {
		A[i] = float32(isa.F16ToF32(isa.F32ToF16(float32(randUnit(r, -1, 1)))))
		B[i] = float32(isa.F16ToF32(isa.F32ToF16(float32(randUnit(r, -1, 1)))))
	}
	if half {
		for i := 0; i < n*n; i += 2 {
			w := uint32(isa.F32ToF16(A[i])) | uint32(isa.F32ToF16(A[i+1]))<<16
			g.SetWord(aBase+uint32(i*2), w)
			w = uint32(isa.F32ToF16(B[i])) | uint32(isa.F32ToF16(B[i+1]))<<16
			g.SetWord(bBase+uint32(i*2), w)
		}
	} else {
		for i := range A {
			g.SetWord(aBase+uint32(i*4), math.Float32bits(A[i]))
			g.SetWord(bBase+uint32(i*4), math.Float32bits(B[i]))
		}
	}

	// Host reference with tensor-core semantics: FP16 products (inputs
	// are f16-exact already), FP32 accumulation in ascending-k order.
	C := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += A[i*n+k] * B[k*n+j]
			}
			C[i*n+j] = acc
		}
	}
	want := make([]uint32, n*n)
	for i, v := range C {
		want[i] = math.Float32bits(v)
	}

	name := "HGEMM-MMA"
	if !half {
		name = "FGEMM-MMA"
	}
	b := asm.New(name, opt)
	lane := b.R()
	btx := b.R()
	bty := b.R()
	b.S2R(lane, isa.SrLaneID)
	b.S2R(btx, isa.SrCtaidX)
	b.S2R(bty, isa.SrCtaidY)

	// Fragment geometry: lane owns row=lane/2 of its 16x16 tile,
	// columns (lane%2)*8 .. +7.
	row := b.R()
	col0 := b.R()
	b.Shr(row, isa.R(lane), isa.ImmInt(1))
	b.And(col0, isa.R(lane), isa.ImmInt(1))
	b.Shl(col0, isa.R(col0), isa.ImmInt(3))

	es := int32(elSize)
	// aAddr = aBase + ((bty*16+row)*n + col0) * es, advanced 16*es per tile.
	aAddr := b.R()
	b.IMad(aAddr, isa.R(bty), isa.ImmInt(16), isa.R(row))
	b.IMad(aAddr, isa.R(aAddr), isa.ImmInt(int32(n)), isa.R(col0))
	b.IMad(aAddr, isa.R(aAddr), isa.ImmInt(es), isa.ImmInt(int32(aBase)))
	// bAddr = bBase + (row*n + btx*16 + col0) * es, advanced 16*n*es per tile.
	bAddr := b.R()
	b.IMad(bAddr, isa.R(btx), isa.ImmInt(16), isa.R(col0))
	b.IMad(bAddr, isa.R(row), isa.ImmInt(int32(n)), isa.R(bAddr))
	b.IMad(bAddr, isa.R(bAddr), isa.ImmInt(es), isa.ImmInt(int32(bBase)))

	fragRegs := 4 // packed half2 words per lane
	if !half {
		fragRegs = 8 // FP32 words per lane
	}
	aF := b.RVec(fragRegs, 4)
	bF := b.RVec(fragRegs, 4)
	cF := b.RVec(8, 8)
	for i := 0; i < 8; i++ {
		b.MovImmF32(cF+isa.Reg(i), 0)
	}

	kt := b.R()
	b.ForCounter(kt, 0, int32(n/16), asm.LoopOpts{}, func() {
		for i := 0; i < fragRegs; i++ {
			b.Ldg(aF+isa.Reg(i), aAddr, uint32(i*4))
		}
		for i := 0; i < fragRegs; i++ {
			b.Ldg(bF+isa.Reg(i), bAddr, uint32(i*4))
		}
		if half {
			b.HMMA(cF, aF, bF, cF)
		} else {
			b.FMMA(cF, aF, bF, cF)
		}
		b.IAdd(aAddr, isa.R(aAddr), isa.ImmInt(16*es))
		b.IAdd(bAddr, isa.R(bAddr), isa.ImmInt(16*int32(n)*es))
	})

	// Store the FP32 accumulator tile.
	cAddr := b.R()
	b.IMad(cAddr, isa.R(bty), isa.ImmInt(16), isa.R(row))
	b.IMad(cAddr, isa.R(cAddr), isa.ImmInt(int32(n)), isa.R(col0))
	b.IMad(cAddr, isa.R(cAddr), isa.ImmInt(4), isa.ImmInt(int32(cBase)))
	tmp := b.R()
	b.IMad(tmp, isa.R(btx), isa.ImmInt(16*4), isa.R(cAddr))
	for i := 0; i < 8; i++ {
		b.Stg(tmp, uint32(i*4), cF+isa.Reg(i))
	}
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:   name,
		Dev:    dev,
		Global: g,
		Launches: []Launch{{
			Prog: prog, GridX: n / 16, GridY: n / 16, BlockThreads: 32,
		}},
		Check: checkWords(cBase, want),
		// The accumulator tile is stored in FP32 for both precisions.
		Output: &OutputRegion{Base: cBase, Rows: n, Cols: n, DType: isa.F32},
	}, nil
}

func errNoTensor(dev *device.Device) error {
	return &noTensorError{dev: dev.Name}
}

type noTensorError struct{ dev string }

func (e *noTensorError) Error() string {
	return "kernels: " + e.dev + " has no tensor cores (MMA requires Volta)"
}
