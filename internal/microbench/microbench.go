// Package microbench implements the seven classes of synthetic
// micro-benchmarks of §V: RF (register-file storage), LDST (global
// memory movement), and the arithmetic units FMA / ADD / MUL / MAD (plus
// MMA tensor cores on Volta), each in the precisions the device
// supports. Beam campaigns over these micro-benchmarks measure the
// per-unit FIT rates of Figure 3, which the FIT prediction model of §IV
// combines with application AVFs and profiling.
package microbench

import (
	"fmt"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/mem"
	"gpurel/internal/stats"
)

// Micro describes one micro-benchmark.
type Micro struct {
	Name  string
	Op    isa.Op // representative opcode (the unit under test)
	Build kernels.Builder
}

// Catalog returns the device's micro-benchmark set, in Figure-3 order.
func Catalog(dev *device.Device) []Micro {
	if dev.Arch == device.Kepler {
		return []Micro{
			{"FADD", isa.OpFADD, ArithBuilder(isa.OpFADD)},
			{"FMUL", isa.OpFMUL, ArithBuilder(isa.OpFMUL)},
			{"FFMA", isa.OpFFMA, ArithBuilder(isa.OpFFMA)},
			{"IADD", isa.OpIADD, ArithBuilder(isa.OpIADD)},
			{"IMUL", isa.OpIMUL, ArithBuilder(isa.OpIMUL)},
			{"IMAD", isa.OpIMAD, ArithBuilder(isa.OpIMAD)},
			{"LDST", isa.OpLDG, LDSTBuilder()},
			{"RF", isa.OpNOP, RFBuilder()},
		}
	}
	return []Micro{
		{"HADD", isa.OpHADD, ArithBuilder(isa.OpHADD)},
		{"HMUL", isa.OpHMUL, ArithBuilder(isa.OpHMUL)},
		{"HFMA", isa.OpHFMA, ArithBuilder(isa.OpHFMA)},
		{"FADD", isa.OpFADD, ArithBuilder(isa.OpFADD)},
		{"FMUL", isa.OpFMUL, ArithBuilder(isa.OpFMUL)},
		{"FFMA", isa.OpFFMA, ArithBuilder(isa.OpFFMA)},
		{"DADD", isa.OpDADD, ArithBuilder(isa.OpDADD)},
		{"DMUL", isa.OpDMUL, ArithBuilder(isa.OpDMUL)},
		{"DFMA", isa.OpDFMA, ArithBuilder(isa.OpDFMA)},
		{"IADD", isa.OpIADD, ArithBuilder(isa.OpIADD)},
		{"IMUL", isa.OpIMUL, ArithBuilder(isa.OpIMUL)},
		{"IMAD", isa.OpIMAD, ArithBuilder(isa.OpIMAD)},
		{"HMMA", isa.OpHMMA, MMABuilder(true)},
		{"FMMA", isa.OpFMMA, MMABuilder(false)},
		{"LDST", isa.OpLDG, LDSTBuilder()},
		{"RF", isa.OpNOP, RFBuilder()},
	}
}

// UnitFor maps an application opcode to the micro-benchmark that
// measured its functional unit, or "" when the unit was not
// characterized (the OTHERS class the prediction cannot cover, §VII-A).
func UnitFor(op isa.Op) string {
	switch op {
	case isa.OpFADD:
		return "FADD"
	case isa.OpFMUL:
		return "FMUL"
	case isa.OpFFMA:
		return "FFMA"
	case isa.OpHADD:
		return "HADD"
	case isa.OpHMUL:
		return "HMUL"
	case isa.OpHFMA:
		return "HFMA"
	case isa.OpDADD:
		return "DADD"
	case isa.OpDMUL:
		return "DMUL"
	case isa.OpDFMA:
		return "DFMA"
	case isa.OpIADD, isa.OpLOP, isa.OpSHF, isa.OpIMNMX, isa.OpISETP:
		return "IADD" // simple integer ops share the IADD-class datapath
	case isa.OpIMUL:
		return "IMUL"
	case isa.OpIMAD:
		return "IMAD"
	case isa.OpHMMA:
		return "HMMA"
	case isa.OpFMMA:
		return "FMMA"
	case isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpRED:
		return "LDST"
	default:
		return ""
	}
}

const (
	arithBlocks  = 32
	arithThreads = 64
	arithTrip    = 48 // loop iterations; 4 operations per iteration
)

// ArithBuilder builds the FMA/ADD/MUL/MAD micro-benchmark for one
// opcode: every thread streams operations through four independent
// accumulators to saturate its functional unit, then stores the
// accumulators for the host check. Inputs are chosen to avoid overflow
// (§V-A).
func ArithBuilder(op isa.Op) kernels.Builder {
	return func(dev *device.Device, opt asm.OptLevel) (*kernels.Instance, error) {
		return buildArith(dev, opt, op)
	}
}

func buildArith(dev *device.Device, opt asm.OptLevel, op isa.Op) (*kernels.Instance, error) {
	dt := op.TypeOf()
	if dt == isa.F16 && !dev.HasFP16 {
		return nil, fmt.Errorf("microbench: %s requires FP16 units", op)
	}
	// Integer micro-benchmarks use the 32-bit container element.
	et := dt
	if dt == isa.I32 || dt == isa.U32 {
		et = isa.F32
	}
	e := kernels.ElemFor(et)
	g := mem.NewGlobal()
	n := arithBlocks * arithThreads
	es := int(e.Size())
	xBase, err := g.Alloc(n * es)
	if err != nil {
		return nil, err
	}
	yBase, _ := g.Alloc(n * es)
	outBase, _ := g.Alloc(n * 4 * es)

	r := stats.NewRNG(0x5eed, uint64(op))
	isInt := dt == isa.I32 || dt == isa.U32
	X := make([]uint64, n)
	Y := make([]uint64, n)
	for i := range X {
		if isInt {
			// Odd multiplicands: odd values are invertible mod 2^32, so a
			// corrupted accumulator never collapses to zero and the
			// integer micro-benchmarks keep their AVF ~ 1.0 (§V-A).
			X[i] = uint64(r.Uint32()&0xffff | 1)
			Y[i] = uint64(r.Uint32()&0xff | 1)
		} else {
			// Multiplicands hug 1.0 so long product chains stay finite.
			X[i] = e.EncodeFloat(1 + (r.Float64()-0.5)*1e-3)
			Y[i] = e.EncodeFloat((r.Float64() - 0.5) * 1e-3)
		}
	}
	for i := range X {
		e.StoreRaw(g, xBase+uint32(i*es), X[i])
		e.StoreRaw(g, yBase+uint32(i*es), Y[i])
	}

	// Host mirror of the accumulator streams.
	want := make([]uint64, n*4)
	for t := 0; t < n; t++ {
		accs := hostArithRun(e, op, X[t], Y[t])
		copy(want[t*4:], accs[:])
	}

	prog, err := buildArithKernel(opt, e, op, xBase, yBase, outBase)
	if err != nil {
		return nil, err
	}
	return &kernels.Instance{
		Name:   op.String(),
		Dev:    dev,
		Global: g,
		Launches: []kernels.Launch{{
			Prog: prog, GridX: arithBlocks, GridY: 1, BlockThreads: arithThreads,
		}},
		Check: func(gm *mem.Global) bool {
			for i, w := range want {
				if e.LoadRaw(gm, outBase+uint32(i*es)) != w {
					return false
				}
			}
			return true
		},
	}, nil
}

// hostArithRun mirrors one thread's accumulator streams bit-exactly.
func hostArithRun(e kernels.Elem, op isa.Op, x, y uint64) [4]uint64 {
	var accs [4]uint64
	if op.TypeOf() == isa.I32 || op.TypeOf() == isa.U32 {
		xi, yi := int32(uint32(x)), int32(uint32(y))
		for j := 0; j < 4; j++ {
			var acc int32
			if op == isa.OpIMUL {
				acc = 1
			}
			for it := 0; it < arithTrip; it++ {
				switch op {
				case isa.OpIADD:
					acc += xi
				case isa.OpIMUL:
					acc *= xi
				case isa.OpIMAD:
					acc = xi*yi + acc
				}
			}
			accs[j] = uint64(uint32(acc))
		}
		return accs
	}
	xv := e.DecodeFloat(x)
	yv := e.DecodeFloat(y)
	for j := 0; j < 4; j++ {
		acc := e.DecodeFloat(e.EncodeFloat(0))
		if op == isa.OpFMUL || op == isa.OpDMUL || op == isa.OpHMUL {
			acc = e.DecodeFloat(e.EncodeFloat(1))
		}
		for it := 0; it < arithTrip; it++ {
			switch op {
			case isa.OpFADD, isa.OpDADD, isa.OpHADD:
				acc = e.HostAdd(acc, yv)
			case isa.OpFMUL, isa.OpDMUL, isa.OpHMUL:
				acc = e.HostMul(acc, xv)
			case isa.OpFFMA, isa.OpDFMA, isa.OpHFMA:
				acc = e.HostFMA(xv, yv, acc)
			}
		}
		accs[j] = e.EncodeFloat(acc)
	}
	return accs
}

func buildArithKernel(opt asm.OptLevel, e kernels.Elem, op isa.Op, xBase, yBase, outBase uint32) (*isa.Program, error) {
	b := asm.New("micro_"+op.String(), opt)
	es := int32(e.Size())
	gid := kernels.EmitGID(b)
	xAddr := kernels.EmitAddr(b, gid, xBase, es)
	yAddr := kernels.EmitAddr(b, gid, yBase, es)
	x := e.Val(b)
	y := e.Val(b)
	e.Load(b, x, xAddr, 0)
	e.Load(b, y, yAddr, 0)

	isInt := op.TypeOf() == isa.I32 || op.TypeOf() == isa.U32
	isMul := op == isa.OpFMUL || op == isa.OpDMUL || op == isa.OpHMUL || op == isa.OpIMUL
	var accs [4]isa.Reg
	for j := range accs {
		accs[j] = e.Val(b)
		switch {
		case isInt && isMul:
			b.MovImm(accs[j], 1)
		case isInt:
			b.MovImm(accs[j], 0)
		case isMul:
			e.Imm(b, accs[j], 1)
		default:
			e.Imm(b, accs[j], 0)
		}
	}

	k := b.R()
	b.ForCounter(k, 0, arithTrip, asm.LoopOpts{Unroll: 4}, func() {
		for j := 0; j < 4; j++ {
			switch op {
			case isa.OpFADD, isa.OpDADD, isa.OpHADD:
				e.Add(b, accs[j], accs[j], y)
			case isa.OpFMUL, isa.OpDMUL, isa.OpHMUL:
				e.Mul(b, accs[j], accs[j], x)
			case isa.OpFFMA, isa.OpDFMA, isa.OpHFMA:
				e.FMA(b, accs[j], x, y, accs[j])
			case isa.OpIADD:
				b.IAdd(accs[j], isa.R(accs[j]), isa.R(x))
			case isa.OpIMUL:
				b.IMul(accs[j], isa.R(accs[j]), isa.R(x))
			case isa.OpIMAD:
				b.IMad(accs[j], isa.R(x), isa.R(y), isa.R(accs[j]))
			}
		}
	})

	oAddr := kernels.EmitAddr(b, gid, outBase, 4*es)
	for j := 0; j < 4; j++ {
		e.Store(b, oAddr, uint32(int32(j)*es), accs[j])
	}
	b.Exit()
	return b.Build()
}
