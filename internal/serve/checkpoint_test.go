package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpurel/internal/patterns"
)

// consistentCheckpoint is a well-formed paused FMXM campaign: one class
// still sampling, one stopped at its cap.
func consistentCheckpoint(id string) checkpointJSON {
	return checkpointJSON{
		ID: id,
		Request: Request{
			Code: "FMXM", Device: "volta", TargetWidth: 0.12, Seed: 97,
			MaxTrials: 32, MinTrials: 8, Batch: 8, Workers: 2,
		},
		Tool: "NVBitFI",
		Classes: []ClassCounts{
			{
				Class: "FMA", Trials: 16, SDC: 12, DUE: 3, Masked: 1,
				Patterns: patterns.Ledger{Single: 10, Block: 1, Unclassified: 1, Critical: 4, Tolerable: 7},
				DUEModes: patterns.DUELedger{Hang: 1, IllegalAddress: 2},
			},
			{
				Class: "LDST", Trials: 32, SDC: 20, DUE: 4, Masked: 8,
				Patterns: patterns.Ledger{Single: 20, Critical: 15, Tolerable: 5},
				DUEModes: patterns.DUELedger{IllegalAddress: 4},
			},
		},
		Stopped: []string{"LDST"},
		CapHit:  []string{"LDST"},
	}
}

func writeCheckpoint(t *testing.T, dir, id string, ck any) string {
	t.Helper()
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dirListing names every file under dir, for before/after comparison.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		names = append(names, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestResumeRejectsPathTraversal sends an escaped-slash campaign ID to
// the resume endpoint. The ServeMux unescapes it to "../x"; the daemon
// must refuse it before touching the file it would name outside the
// spool, which here holds a loadable checkpoint claiming that ID.
func TestResumeRejectsPathTraversal(t *testing.T) {
	root := t.TempDir()
	spool := filepath.Join(root, "spool")
	s, err := New(Options{SpoolDir: spool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	outside := writeCheckpoint(t, root, "x", consistentCheckpoint("../x"))
	before, err := os.ReadFile(outside)
	if err != nil {
		t.Fatal(err)
	}
	listing := dirListing(t, root)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, id := range []string{"..%2Fx", "..%2F..%2Ftmp%2Fx", "c000001%2F..%2F..%2Fx"} {
		resp, err := http.Post(ts.URL+"/campaigns/"+id+"/resume", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("resume %s: status %d, want 4xx", id, resp.StatusCode)
		}
	}
	if _, err := s.ResumeFromCheckpoint("../x"); err == nil {
		t.Fatal("ResumeFromCheckpoint accepted a path as an ID")
	}
	if n := len(s.order); n != 0 {
		t.Fatalf("%d campaigns revived", n)
	}
	after, err := os.ReadFile(outside)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("file outside the spool changed (err %v)", err)
	}
	if got := dirListing(t, root); strings.Join(got, "\n") != strings.Join(listing, "\n") {
		t.Fatalf("files changed around the spool:\nbefore %v\nafter  %v", listing, got)
	}
}

// TestLoadCheckpointRejectsInconsistent corrupts a consistent
// checkpoint one way at a time; each must fail with an error naming the
// file and, where one is at fault, the class.
func TestLoadCheckpointRejectsInconsistent(t *testing.T) {
	const id = "c000042"
	for _, tc := range []struct {
		name, want string
		mutate     func(ck *checkpointJSON)
	}{
		{"negative count", "FMA", func(ck *checkpointJSON) {
			ck.Classes[0].Masked, ck.Classes[0].SDC = -1, 14
			ck.Classes[0].Patterns.Single = 12
		}},
		{"outcomes do not sum to trials", "FMA", func(ck *checkpointJSON) { ck.Classes[0].Trials = 17 }},
		{"pattern ledger off", "LDST", func(ck *checkpointJSON) { ck.Classes[1].Patterns.Single = 19 }},
		{"negative pattern", "FMA", func(ck *checkpointJSON) {
			ck.Classes[0].Patterns.Block, ck.Classes[0].Patterns.Single = -1, 12
		}},
		{"magnitudes off", "FMA", func(ck *checkpointJSON) { ck.Classes[0].Patterns.Critical = 5 }},
		{"due ledger off", "LDST", func(ck *checkpointJSON) { ck.Classes[1].DUEModes.Hang = 1 }},
		{"duplicate class", "LDST", func(ck *checkpointJSON) {
			ck.Classes = append(ck.Classes, ck.Classes[1])
		}},
		{"stopped names an absent class", "INT", func(ck *checkpointJSON) {
			ck.Stopped = append(ck.Stopped, "INT")
		}},
		{"cap_hit names an absent class", "INT", func(ck *checkpointJSON) {
			ck.CapHit = append(ck.CapHit, "INT")
		}},
		{"trials over max_trials", "LDST", func(ck *checkpointJSON) { ck.Request.MaxTrials = 24 }},
		{"id differs from file name", `"c000043"`, func(ck *checkpointJSON) { ck.ID = "c000043" }},
		{"tool differs from request", "SASSIFI", func(ck *checkpointJSON) { ck.Tool = "SASSIFI" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testServer(t)
			ck := consistentCheckpoint(id)
			tc.mutate(&ck)
			path := writeCheckpoint(t, s.SpoolDir(), id, ck)
			_, err := s.loadCheckpoint(id)
			if err == nil {
				t.Fatal("loaded")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s and %s", err, path, tc.want)
			}
		})
	}

	// The unmutated checkpoint loads, with its stop state.
	s := testServer(t)
	writeCheckpoint(t, s.SpoolDir(), id, consistentCheckpoint(id))
	c, err := s.loadCheckpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.classes) != 2 || c.classes[0].stopped || !c.classes[1].capHit {
		t.Fatalf("loaded classes wrong: %+v", c.classes)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader as
// spool file c000001.json. The loader must never panic; anything it
// accepts must re-serialize to a checkpoint that loads back to the same
// bytes and still passes every check.
func FuzzLoadCheckpoint(f *testing.F) {
	const id = "c000001"
	s, err := New(Options{SpoolDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(s.SpoolDir(), id+".json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := s.loadCheckpoint(id)
		if err != nil {
			return
		}
		reserialize := func(c *Campaign) []byte {
			c.mu.Lock()
			defer c.mu.Unlock()
			if err := c.checkpointLocked(); err != nil {
				t.Fatal(err)
			}
			out, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		first := reserialize(c)
		c2, err := s.loadCheckpoint(id)
		if err != nil {
			t.Fatalf("re-serialized checkpoint does not load: %v\n%s", err, first)
		}
		if second := reserialize(c2); !bytes.Equal(first, second) {
			t.Fatalf("checkpoint round trip is not stable:\n%s\n%s", first, second)
		}
	})
}
