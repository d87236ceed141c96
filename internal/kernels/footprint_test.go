package kernels

import (
	"testing"

	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/isa"
)

// TestRunnerMemoryIsSnapshotSized: every builder's device memory is
// exactly what it allocated, so a runner's instance memory and the
// scratch Globals its replays restore into hold exactly the snapshot's
// words, and MemoryFootprint charges at least the snapshots, the images'
// memory and the images' frozen registers.
func TestRunnerMemoryIsSnapshotSized(t *testing.T) {
	cases := []struct {
		name string
		b    Builder
		dev  *device.Device
	}{
		{"FMXM", MxMBuilder(isa.F32), device.K40c()},
		{"FHOTSPOT", HotspotBuilder(isa.F32), device.K40c()},
		{"FLAVA", LavaBuilder(isa.F32), device.K40c()},
		{"FGAUSSIAN", GaussianBuilder(), device.K40c()}, // many launches
		{"FLUD", LUDBuilder(), device.K40c()},
		{"NW", NWBuilder(), device.K40c()},
		{"BFS", BFSBuilder(), device.K40c()},
		{"CCL", CCLBuilder(), device.K40c()},
		{"MERGESORT", MergesortBuilder(), device.K40c()},
		{"QUICKSORT", QuicksortBuilder(), device.K40c()},
		{"FGEMM", GEMMBuilder(isa.F32), device.K40c()},
		{"HGEMM-MMA", GEMMMMABuilder(true), device.V100()},
		{"FYOLOV3", YOLOBuilder(true, isa.F32), device.K40c()},
	}
	images := 0
	for _, c := range cases {
		r, err := NewRunner(c.name, c.b, c.dev, asm.O2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		size := r.snaps[0].SizeBytes()
		if got := r.inst.Global.CapacityBytes(); got != size {
			t.Errorf("%s: instance memory %d bytes, snapshot %d", c.name, got, size)
		}
		want := r.inst.Global.CapacityBytes()
		for i, s := range r.snaps {
			if s.SizeBytes() != size {
				t.Errorf("%s: snapshot %d is %d bytes, snapshot 0 is %d", c.name, i, s.SizeBytes(), size)
			}
			want += s.SizeBytes()
		}
		g := r.pool.Get()
		if g.CapacityBytes() != size {
			t.Errorf("%s: pool Global %d bytes, snapshot %d", c.name, g.CapacityBytes(), size)
		}
		g.Restore(r.snaps[len(r.snaps)-1])
		if g.CapacityBytes() != size {
			t.Errorf("%s: restored pool Global %d bytes, snapshot %d", c.name, g.CapacityBytes(), size)
		}
		r.pool.Put(g)
		for _, imgs := range r.images {
			for _, img := range imgs {
				if img.Mem.SizeBytes() != size {
					t.Errorf("%s: image memory %d bytes, snapshot %d", c.name, img.Mem.SizeBytes(), size)
				}
				if img.RegisterBytes() == 0 {
					t.Errorf("%s: image at cycle %d froze no registers", c.name, img.Cycle)
				}
				want += img.Mem.SizeBytes() + img.RegisterBytes()
				images++
			}
		}
		if got := r.MemoryFootprint(); got < want {
			t.Errorf("%s: MemoryFootprint %d < memory + snapshots + image memory and registers %d",
				c.name, got, want)
		}
	}
	if images == 0 {
		t.Fatal("no runner recorded a sub-launch image; the image terms went untested")
	}
}
