package microbench

import (
	"fmt"
	"math"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/mem"
	"gpurel/internal/stats"
)

// LDSTBuilder builds the LDST micro-benchmark of §V-A: every thread
// performs a sequence of global-memory movements (load followed by
// store) over a uniquely patterned region; the host verifies the copied
// pattern. Its failures are dominated by corrupted addresses, which is
// why the paper measures a DUE rate ~7x its SDC rate.
func LDSTBuilder() kernels.Builder {
	return buildLDST
}

const (
	ldstBlocks  = 32
	ldstThreads = 64
	ldstMoves   = 32
	ldstGroup   = 8 // moves per address update: the loop is all LDG/STG
)

func buildLDST(dev *device.Device, opt asm.OptLevel) (*kernels.Instance, error) {
	n := ldstBlocks * ldstThreads * ldstMoves
	g := mem.NewGlobal()
	srcBase, err := g.Alloc(n * 4)
	if err != nil {
		return nil, err
	}
	dstBase, _ := g.Alloc(n * 4)
	r := stats.NewRNG(0x1d57, 1)
	want := make([]uint32, n)
	for i := range want {
		want[i] = r.Uint32()
		g.SetWord(srcBase+uint32(i*4), want[i])
	}

	b := asm.New("micro_LDST", opt)
	gid := kernels.EmitGID(b)
	// Thread t copies elements [t*moves, (t+1)*moves), eight moves per
	// address update so the dynamic stream is dominated by LDG/STG and
	// the micro-benchmark measures the LDST unit, not loop overhead.
	src := b.R()
	dst := b.R()
	b.IMul(src, isa.R(gid), isa.ImmInt(ldstMoves*4))
	b.IAdd(dst, isa.R(src), isa.ImmInt(int32(dstBase)))
	b.IAdd(src, isa.R(src), isa.ImmInt(int32(srcBase)))
	v := b.R()
	i := b.R()
	b.ForCounter(i, 0, ldstMoves/ldstGroup, asm.LoopOpts{}, func() {
		for m := 0; m < ldstGroup; m++ {
			b.Ldg(v, src, uint32(m*4))
			b.Stg(dst, uint32(m*4), v)
		}
		b.IAdd(src, isa.R(src), isa.ImmInt(ldstGroup*4))
		b.IAdd(dst, isa.R(dst), isa.ImmInt(ldstGroup*4))
	})
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &kernels.Instance{
		Name:   "LDST",
		Dev:    dev,
		Global: g,
		Launches: []kernels.Launch{{
			Prog: prog, GridX: ldstBlocks, GridY: 1, BlockThreads: ldstThreads,
		}},
		Check: func(gm *mem.Global) bool {
			for i, w := range want {
				if gm.Word(dstBase+uint32(i*4)) != w {
					return false
				}
			}
			return true
		},
	}, nil
}

// RFBuilder builds the register-file micro-benchmark of §V-A: each
// thread fills every register it can claim with a known pattern, idles
// through an exposure window, folds the registers into a checksum, and
// stores it. The launch uses the smallest thread count that saturates
// the register file (one 32-thread warp per SM at 240 registers each).
func RFBuilder() kernels.Builder {
	return buildRF
}

const (
	rfRegsUsed = 240
	rfExposure = 400 // idle-loop iterations between write and read-back
)

func buildRF(dev *device.Device, opt asm.OptLevel) (*kernels.Instance, error) {
	g := mem.NewGlobal()
	blocks := dev.NumSMs
	threads := 32
	outBase, err := g.Alloc(blocks * threads * 4)
	if err != nil {
		return nil, err
	}

	pattern := func(i int) uint32 { return 0xa5a50000 ^ uint32(i*0x9e37) }
	var checksum uint32
	for i := 0; i < rfRegsUsed; i++ {
		checksum ^= pattern(i)
	}

	b := asm.New("micro_RF", opt)
	gid := kernels.EmitGID(b)
	var regs []isa.Reg
	for i := 0; i < rfRegsUsed; i++ {
		r := b.R()
		b.MovImm(r, pattern(i))
		regs = append(regs, r)
	}
	// Exposure window: an idle loop long enough that the write/read-back
	// time is negligible next to it (§V-A).
	cnt := b.R()
	b.ForCounter(cnt, 0, rfExposure, asm.LoopOpts{}, func() {
		b.Nop()
	})
	sum := b.R()
	b.MovImm(sum, 0)
	for _, r := range regs {
		b.Xor(sum, isa.R(sum), isa.R(r))
	}
	oAddr := kernels.EmitAddr(b, gid, outBase, 4)
	b.Stg(oAddr, 0, sum)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	if prog.NumRegs < rfRegsUsed {
		return nil, fmt.Errorf("microbench: RF kernel uses %d registers, want >= %d", prog.NumRegs, rfRegsUsed)
	}
	total := blocks * threads
	return &kernels.Instance{
		Name:   "RF",
		Dev:    dev,
		Global: g,
		Launches: []kernels.Launch{{
			Prog: prog, GridX: blocks, GridY: 1, BlockThreads: threads,
		}},
		Check: func(gm *mem.Global) bool {
			for i := 0; i < total; i++ {
				if gm.Word(outBase+uint32(i*4)) != checksum {
					return false
				}
			}
			return true
		},
	}, nil
}

// MMABuilder builds the tensor-core micro-benchmark: each warp chains
// matrix-multiply-accumulate operations over register fragments (HMMA:
// FP16 inputs; FMMA: FP32 inputs cast on the core), then stores the
// accumulator fragments.
func MMABuilder(half bool) kernels.Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*kernels.Instance, error) {
		return buildMMAMicro(dev, opt, half)
	}
}

const (
	mmaBlocks = 32
	mmaChain  = 24
)

func buildMMAMicro(dev *device.Device, opt asm.OptLevel, half bool) (*kernels.Instance, error) {
	if !dev.HasTensor {
		return nil, fmt.Errorf("microbench: %s has no tensor cores", dev.Name)
	}
	g := mem.NewGlobal()
	fragRegs := 4
	if !half {
		fragRegs = 8
	}
	// One shared A/B fragment set, loaded by every warp.
	abBase, err := g.Alloc(32 * fragRegs * 4 * 2)
	if err != nil {
		return nil, err
	}
	outBase, _ := g.Alloc(mmaBlocks * 32 * 8 * 4)

	r := stats.NewRNG(0x3a3a, 5)
	// A and B matrices, f16-exact values small enough that a chain of
	// accumulations stays finite.
	var A, B [16][16]float32
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			A[i][j] = float32(isa.F16ToF32(isa.F32ToF16(float32(r.Float64()*0.25 - 0.125))))
			B[i][j] = float32(isa.F16ToF32(isa.F32ToF16(float32(r.Float64()*0.25 - 0.125))))
		}
	}
	// Device layout: lane L holds row L/2, cols (L%2)*8..+7.
	packHalf := func(m *[16][16]float32, lane, slot int) uint32 {
		row, col0 := lane/2, (lane%2)*8
		lo := isa.F32ToF16(m[row][col0+2*slot])
		hi := isa.F32ToF16(m[row][col0+2*slot+1])
		return uint32(lo) | uint32(hi)<<16
	}
	packFloat := func(m *[16][16]float32, lane, slot int) uint32 {
		row, col0 := lane/2, (lane%2)*8
		return math.Float32bits(m[row][col0+slot])
	}
	for lane := 0; lane < 32; lane++ {
		for s := 0; s < fragRegs; s++ {
			var aw, bw uint32
			if half {
				aw, bw = packHalf(&A, lane, s), packHalf(&B, lane, s)
			} else {
				aw, bw = packFloat(&A, lane, s), packFloat(&B, lane, s)
			}
			g.SetWord(abBase+uint32((lane*fragRegs+s)*4), aw)
			g.SetWord(abBase+uint32((32*fragRegs+lane*fragRegs+s)*4), bw)
		}
	}

	// Host mirror: D = 0; repeat chain times: D = A*B + D (fp32 adds in
	// ascending k within each MMA).
	var D [16][16]float32
	for c := 0; c < mmaChain; c++ {
		var next [16][16]float32
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				acc := D[i][j]
				for k := 0; k < 16; k++ {
					acc += A[i][k] * B[k][j]
				}
				next[i][j] = acc
			}
		}
		D = next
	}
	want := make([]uint32, 32*8)
	for lane := 0; lane < 32; lane++ {
		row, col0 := lane/2, (lane%2)*8
		for s := 0; s < 8; s++ {
			want[lane*8+s] = math.Float32bits(D[row][col0+s])
		}
	}

	name := "HMMA"
	if !half {
		name = "FMMA"
	}
	b := asm.New("micro_"+name, opt)
	lane := b.R()
	blk := b.R()
	b.S2R(lane, isa.SrLaneID)
	b.S2R(blk, isa.SrCtaidX)
	aF := b.RVec(fragRegs, 4)
	bF := b.RVec(fragRegs, 4)
	cF := b.RVec(8, 8)
	addr := b.R()
	b.IMad(addr, isa.R(lane), isa.ImmInt(int32(fragRegs)*4), isa.ImmInt(int32(abBase)))
	for s := 0; s < fragRegs; s++ {
		b.Ldg(aF+isa.Reg(s), addr, uint32(s*4))
	}
	b.IAdd(addr, isa.R(addr), isa.ImmInt(int32(32*fragRegs)*4))
	for s := 0; s < fragRegs; s++ {
		b.Ldg(bF+isa.Reg(s), addr, uint32(s*4))
	}
	for i := 0; i < 8; i++ {
		b.MovImmF32(cF+isa.Reg(i), 0)
	}
	k := b.R()
	b.ForCounter(k, 0, mmaChain, asm.LoopOpts{}, func() {
		if half {
			b.HMMA(cF, aF, bF, cF)
		} else {
			b.FMMA(cF, aF, bF, cF)
		}
	})
	out := b.R()
	b.IMad(out, isa.R(blk), isa.ImmInt(32*8*4), isa.ImmInt(int32(outBase)))
	b.IMad(out, isa.R(lane), isa.ImmInt(8*4), isa.R(out))
	for s := 0; s < 8; s++ {
		b.Stg(out, uint32(s*4), cF+isa.Reg(s))
	}
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &kernels.Instance{
		Name:   name,
		Dev:    dev,
		Global: g,
		Launches: []kernels.Launch{{
			Prog: prog, GridX: mmaBlocks, GridY: 1, BlockThreads: 32,
		}},
		Check: func(gm *mem.Global) bool {
			for blk := 0; blk < mmaBlocks; blk++ {
				base := outBase + uint32(blk*32*8*4)
				for i, w := range want {
					if gm.Word(base+uint32(i*4)) != w {
						return false
					}
				}
			}
			return true
		},
	}, nil
}
