package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// NW is the Needleman-Wunsch sequence-alignment benchmark: an integer
// dynamic program over a (N+1)x(N+1) score matrix, processed as a
// wavefront of TxT tiles. Each launch handles one anti-diagonal of
// tiles; inside a tile, T threads sweep its 2T-1 cell anti-diagonals
// with a barrier per step. The tiny tile blocks and barrier-serialized
// inner loop reproduce the paper's observation that NW under-utilizes
// the GPU (Table I: occupancy 0.08, IPC 0.2), which is exactly where
// the FIT prediction underestimates the beam the most (§VII-A).
const (
	nwN       = 48
	nwTile    = 16
	nwPenalty = 1
)

// NWBuilder returns the Needleman-Wunsch builder.
func NWBuilder() Builder {
	return buildNW
}

func buildNW(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	const (
		n = nwN
		t = nwTile
	)
	rows := n + 1
	g := mem.NewGlobal()
	scoreBase, err := g.Alloc(rows * rows * 4)
	if err != nil {
		return nil, err
	}
	wBase, _ := g.Alloc(n * n * 4)

	r := dataRNG(0x5e9)
	W := make([]int32, n*n)
	for i := range W {
		W[i] = int32(r.IntN(7)) - 3
	}
	score := make([]int32, rows*rows)
	for i := 0; i < rows; i++ {
		score[i*rows] = int32(-i * nwPenalty)
		score[i] = int32(-i * nwPenalty)
	}
	for i, v := range W {
		g.SetWord(wBase+uint32(i*4), uint32(v))
	}
	for i, v := range score {
		g.SetWord(scoreBase+uint32(i*4), uint32(v))
	}

	// Host reference.
	ref := append([]int32(nil), score...)
	maxI := func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	}
	for i := 1; i < rows; i++ {
		for j := 1; j < rows; j++ {
			d := ref[(i-1)*rows+(j-1)] + W[(i-1)*n+(j-1)]
			u := ref[(i-1)*rows+j] - nwPenalty
			l := ref[i*rows+(j-1)] - nwPenalty
			ref[i*rows+j] = maxI(d, maxI(u, l))
		}
	}

	nt := n / t
	var launches []Launch
	for wave := 0; wave < 2*nt-1; wave++ {
		prog, err := buildNWTileKernel(opt, wave, n, t, scoreBase, wBase)
		if err != nil {
			return nil, err
		}
		// Tiles (ti, tj) with ti+tj == wave, 0 <= ti,tj < nt.
		lo := 0
		if wave > nt-1 {
			lo = wave - (nt - 1)
		}
		hi := wave
		if hi > nt-1 {
			hi = nt - 1
		}
		blocks := hi - lo + 1
		launches = append(launches, Launch{
			Prog: prog, GridX: blocks, GridY: 1, BlockThreads: t,
		})
	}
	want := make([]uint32, len(ref))
	for i, v := range ref {
		want[i] = uint32(v)
	}
	return &Instance{
		Name:     "NW",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(scoreBase, want),
		Output:   &OutputRegion{Base: scoreBase, Rows: rows, Cols: rows, DType: isa.I32},
	}, nil
}

// buildNWTileKernel processes the tiles of one wavefront. CTAID.X picks
// the tile along the anti-diagonal. The tile's (T+1)x(T+1) score halo is
// staged in shared memory, swept diagonally with a barrier per step, and
// written back.
func buildNWTileKernel(opt asm.OptLevel, wave, n, t int, scoreBase, wBase uint32) (*isa.Program, error) {
	rows := n + 1
	nt := n / t
	b := asm.New("nw_tile", opt)
	shScore := b.AllocShared((t + 1) * (t + 1) * 4)
	shW := b.AllocShared(t * t * 4)

	tid := b.R()
	blk := b.R()
	b.S2R(tid, isa.SrTidX)
	b.S2R(blk, isa.SrCtaidX)

	// Tile coordinates: ti = lo + blk, tj = wave - ti.
	lo := 0
	if wave > nt-1 {
		lo = wave - (nt - 1)
	}
	ti := b.R()
	tj := b.R()
	b.IAdd(ti, isa.R(blk), isa.ImmInt(int32(lo)))
	b.ISub(tj, isa.ImmInt(int32(wave)), isa.R(ti))

	// Global origin of the tile in the score matrix: (ti*t, tj*t);
	// cell (1,1) of the tile maps to score[orow+1][ocol+1].
	orow := b.R()
	ocol := b.R()
	b.IMul(orow, isa.R(ti), isa.ImmInt(int32(t)))
	b.IMul(ocol, isa.R(tj), isa.ImmInt(int32(t)))

	gAddr := b.R()
	sAddr := b.R()
	v := b.R()
	rr := b.R()

	// Stage the (t+1)x(t+1) score halo: on halo row r, thread tx loads
	// column tx and thread 0 additionally loads column t.
	rloop := b.R()
	b.ForCounter(rloop, 0, int32(t+1), asm.LoopOpts{}, func() {
		b.IAdd(rr, isa.R(orow), isa.R(rloop))
		b.IMad(gAddr, isa.R(rr), isa.ImmInt(int32(rows)), isa.R(ocol))
		b.IMad(gAddr, isa.R(gAddr), isa.ImmInt(4), isa.ImmInt(int32(scoreBase)))
		b.IMad(gAddr, isa.R(tid), isa.ImmInt(4), isa.R(gAddr))
		b.Ldg(v, gAddr, 0)
		b.IMul(sAddr, isa.R(rloop), isa.ImmInt(int32(t+1)*4))
		b.IMad(sAddr, isa.R(tid), isa.ImmInt(4), isa.R(sAddr))
		b.IAdd(sAddr, isa.R(sAddr), isa.ImmInt(int32(shScore)))
		b.Sts(sAddr, 0, v)
		p0 := b.P()
		b.ISetp(p0, isa.CmpEQ, isa.R(tid), isa.ImmInt(0))
		b.Guarded(p0, false, func() {
			b.Ldg(v, gAddr, uint32(t*4))
			b.Sts(sAddr, uint32(t*4), v)
		})
		b.ReleaseP(p0)
	})
	// Stage the t x t similarity tile.
	b.ForCounter(rloop, 0, int32(t), asm.LoopOpts{}, func() {
		b.IAdd(rr, isa.R(orow), isa.R(rloop))
		b.IMad(gAddr, isa.R(rr), isa.ImmInt(int32(n)), isa.R(ocol))
		b.IMad(gAddr, isa.R(gAddr), isa.ImmInt(4), isa.ImmInt(int32(wBase)))
		b.IMad(gAddr, isa.R(tid), isa.ImmInt(4), isa.R(gAddr))
		b.Ldg(v, gAddr, 0)
		b.IMul(sAddr, isa.R(rloop), isa.ImmInt(int32(t)*4))
		b.IMad(sAddr, isa.R(tid), isa.ImmInt(4), isa.R(sAddr))
		b.IAdd(sAddr, isa.R(sAddr), isa.ImmInt(int32(shW)))
		b.Sts(sAddr, 0, v)
	})
	b.Bar()

	// Diagonal sweep: at step s, thread tx owns cell (rowIdx+1, tx+1)
	// with rowIdx = s - tx, valid while 0 <= rowIdx < t.
	s := b.R()
	rowIdx := b.R()
	guard := b.R()
	inRange := b.P()
	dAddr := b.R()
	wAddr := b.R()
	diag := b.R()
	up := b.R()
	left := b.R()
	wv := b.R()
	best := b.R()
	b.ForCounter(s, 0, int32(2*t-1), asm.LoopOpts{}, func() {
		b.ISub(rowIdx, isa.R(s), isa.R(tid))
		// Sign trick: rowIdx | (t-1-rowIdx) is negative iff out of range.
		b.ISub(guard, isa.ImmInt(int32(t-1)), isa.R(rowIdx))
		b.Or(guard, isa.R(guard), isa.R(rowIdx))
		b.ISetp(inRange, isa.CmpGE, isa.R(guard), isa.ImmInt(0))
		b.Guarded(inRange, false, func() {
			// dAddr points at the diagonal neighbour sh[rowIdx][tx];
			// up, left, and the cell itself are at fixed offsets.
			b.IMul(dAddr, isa.R(rowIdx), isa.ImmInt(int32(t+1)*4))
			b.IMad(dAddr, isa.R(tid), isa.ImmInt(4), isa.R(dAddr))
			b.IAdd(dAddr, isa.R(dAddr), isa.ImmInt(int32(shScore)))
			b.Lds(diag, dAddr, 0)
			b.Lds(up, dAddr, 4)
			b.Lds(left, dAddr, uint32((t+1)*4))
			b.IMad(wAddr, isa.R(rowIdx), isa.ImmInt(int32(t)*4), isa.ImmInt(int32(shW)))
			b.IMad(wAddr, isa.R(tid), isa.ImmInt(4), isa.R(wAddr))
			b.Lds(wv, wAddr, 0)
			b.IAdd(diag, isa.R(diag), isa.R(wv))
			b.IAdd(up, isa.R(up), isa.ImmInt(-nwPenalty))
			b.IAdd(left, isa.R(left), isa.ImmInt(-nwPenalty))
			b.IMax(best, isa.R(up), isa.R(left))
			b.IMax(best, isa.R(best), isa.R(diag))
			b.Sts(dAddr, uint32((t+2)*4), best)
		})
		b.Bar()
	})

	// Write the interior back: thread tx owns column tx+1.
	b.ForCounter(rloop, 1, int32(t+1), asm.LoopOpts{}, func() {
		b.IMul(sAddr, isa.R(rloop), isa.ImmInt(int32(t+1)*4))
		b.IMad(sAddr, isa.R(tid), isa.ImmInt(4), isa.R(sAddr))
		b.IAdd(sAddr, isa.R(sAddr), isa.ImmInt(int32(shScore)+4))
		b.Lds(v, sAddr, 0)
		b.IAdd(rr, isa.R(orow), isa.R(rloop))
		b.IMad(gAddr, isa.R(rr), isa.ImmInt(int32(rows)), isa.R(ocol))
		b.IMad(gAddr, isa.R(gAddr), isa.ImmInt(4), isa.ImmInt(int32(scoreBase)+4))
		b.IMad(gAddr, isa.R(tid), isa.ImmInt(4), isa.R(gAddr))
		b.Stg(gAddr, 0, v)
	})
	b.Exit()
	return b.Build()
}
