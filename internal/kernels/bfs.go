package kernels

import (
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// BFS is the Rodinia level-synchronous breadth-first search: one thread
// per vertex, one launch per frontier level. Threads in the frontier
// walk their CSR adjacency list (a data-dependent, divergent loop),
// label unvisited neighbours with the level, and populate the next
// frontier. Integer-only, high occupancy, low IPC (Table I).
const (
	bfsNodes  = 1024
	bfsDegree = 4
	bfsBlock  = 256
)

// BFSBuilder returns the BFS builder.
func BFSBuilder() Builder {
	return buildBFS
}

// bfsGraph generates the deterministic test graph in CSR form: each
// vertex points at its successor (guaranteeing connectivity) plus three
// pseudo-random targets.
func bfsGraph() (rowPtr []int32, cols []int32) {
	n := bfsNodes
	rowPtr = make([]int32, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v] = int32(v * bfsDegree)
		cols = append(cols,
			int32((v+1)%n),
			int32((v*7+1)%n),
			int32((v*13+5)%n),
			int32((v*29+11)%n),
		)
	}
	rowPtr[n] = int32(n * bfsDegree)
	return rowPtr, cols
}

func buildBFS(dev *device.Device, opt asm.OptLevel) (*Instance, error) {
	n := bfsNodes
	rowPtr, cols := bfsGraph()

	// Host BFS for the reference distances and the level count.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	frontier := []int32{0}
	levels := 0
	for len(frontier) > 0 {
		levels++
		var next []int32
		for _, v := range frontier {
			for e := rowPtr[v]; e < rowPtr[v+1]; e++ {
				nb := cols[e]
				if dist[nb] < 0 {
					dist[nb] = int32(levels)
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}

	g := mem.NewGlobal()
	rpBase, err := g.Alloc((n + 1) * 4)
	if err != nil {
		return nil, err
	}
	colBase, _ := g.Alloc(len(cols) * 4)
	distBase, _ := g.Alloc(n * 4)
	visBase, _ := g.Alloc(n * 4)
	fABase, _ := g.Alloc(n * 4)
	fBBase, _ := g.Alloc(n * 4)

	for i, v := range rowPtr {
		g.SetWord(rpBase+uint32(i*4), uint32(v))
	}
	for i, v := range cols {
		g.SetWord(colBase+uint32(i*4), uint32(v))
	}
	for i := 0; i < n; i++ {
		g.SetWord(distBase+uint32(i*4), ^uint32(0)) // -1
	}
	g.SetWord(distBase, 0)
	g.SetWord(visBase, 1)
	g.SetWord(fABase, 1)

	var launches []Launch
	for l := 1; l <= levels; l++ {
		cur, next := fABase, fBBase
		if l%2 == 0 {
			cur, next = fBBase, fABase
		}
		prog, err := buildBFSLevel(opt, l, n, rpBase, colBase, distBase, visBase, cur, next)
		if err != nil {
			return nil, err
		}
		launches = append(launches, Launch{
			Prog: prog, GridX: n / bfsBlock, GridY: 1, BlockThreads: bfsBlock,
		})
	}
	want := make([]uint32, n)
	for i, v := range dist {
		want[i] = uint32(v)
	}
	return &Instance{
		Name:     "BFS",
		Dev:      dev,
		Global:   g,
		Launches: launches,
		Check:    checkWords(distBase, want),
		Output:   &OutputRegion{Base: distBase, Rows: 1, Cols: n, DType: isa.I32},
	}, nil
}

// buildBFSLevel emits one frontier-expansion kernel for the given level.
func buildBFSLevel(opt asm.OptLevel, level, n int, rpBase, colBase, distBase, visBase, curBase, nextBase uint32) (*isa.Program, error) {
	b := asm.New("bfs_level", opt)
	v := emitGID(b)

	fAddr := emitAddr(b, v, curBase, 4)
	inF := b.R()
	b.Ldg(inF, fAddr, 0)
	pF := b.P()
	b.ISetp(pF, isa.CmpNE, isa.R(inF), isa.ImmInt(0))
	b.If(pF, false, func() {
		// Clear our frontier flag so the ping-pong buffer is reusable.
		zero := b.R()
		b.MovImm(zero, 0)
		b.Stg(fAddr, 0, zero)

		rpAddr := emitAddr(b, v, rpBase, 4)
		e := b.R()
		eEnd := b.R()
		b.Ldg(e, rpAddr, 0)
		b.Ldg(eEnd, rpAddr, 4)

		pEdge := b.P()
		pVis := b.P()
		nb := b.R()
		nbVis := b.R()
		colAddr := b.R()
		visAddr := b.R()
		distAddr := b.R()
		nxtAddr := b.R()
		one := b.R()
		lvl := b.R()
		b.MovImm(one, 1)
		b.MovImmInt(lvl, int32(level))

		b.Label("edges")
		b.IMad(colAddr, isa.R(e), isa.ImmInt(4), isa.ImmInt(int32(colBase)))
		b.Ldg(nb, colAddr, 0)
		b.IMad(visAddr, isa.R(nb), isa.ImmInt(4), isa.ImmInt(int32(visBase)))
		b.Ldg(nbVis, visAddr, 0)
		b.ISetp(pVis, isa.CmpEQ, isa.R(nbVis), isa.ImmInt(0))
		b.Guarded(pVis, false, func() {
			b.Stg(visAddr, 0, one)
			b.IMad(distAddr, isa.R(nb), isa.ImmInt(4), isa.ImmInt(int32(distBase)))
			b.Stg(distAddr, 0, lvl)
			b.IMad(nxtAddr, isa.R(nb), isa.ImmInt(4), isa.ImmInt(int32(nextBase)))
			b.Stg(nxtAddr, 0, one)
		})
		b.IAdd(e, isa.R(e), isa.ImmInt(1))
		b.ISetp(pEdge, isa.CmpLT, isa.R(e), isa.R(eEnd))
		b.BraIf(pEdge, false, "edges")
	})
	b.Exit()
	return b.Build()
}
