package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallStudy is a saved study reduced to one NVBitFI campaign whose
// tallies are consistent: whole campaign, per class, per mode and per
// bit band, each with its pattern and DUE-mode ledgers.
const smallStudy = `{
 "Device": "Tesla V100",
 "AVF": {"NVBitFI": {"FMXM": {
  "Name": "FMXM", "Tool": 1, "Device": "Tesla V100",
  "Injected": 10, "SDC": 4, "DUE": 3, "Masked": 3,
  "Patterns": {"single": 3, "same_row": 1, "critical": 2, "tolerable": 2},
  "DUEModes": {"hang": 1, "illegal_address": 2},
  "PerClass": {
   "2": {"Class": 2, "Injected": 6, "SDC": 4, "DUE": 0, "Masked": 2,
         "Patterns": {"single": 3, "same_row": 1, "critical": 2, "tolerable": 2}},
   "3": {"Class": 3, "Injected": 4, "SDC": 0, "DUE": 3, "Masked": 1,
         "DUEModes": {"hang": 1, "illegal_address": 2}}
  },
  "PerMode": {"0": 10},
  "ByMode": {"0": {"Injected": 10, "SDC": 4, "DUE": 3, "Masked": 3,
   "Patterns": {"single": 3, "same_row": 1, "critical": 2, "tolerable": 2},
   "DUEModes": {"hang": 1, "illegal_address": 2}}},
  "ByBand": {"sign": {"Injected": 2, "SDC": 1, "DUE": 0, "Masked": 1,
   "Patterns": {"single": 1, "critical": 1}}}
 }}},
 "OptMatrix": {"FMXM": {"Name": "FMXM", "Tool": 1, "Cells": [
  {"Opt": 2, "Dynamic": {"Name": "FMXM", "Injected": 2, "SDC": 1, "DUE": 0, "Masked": 1,
   "Patterns": {"single": 1, "critical": 1}}}
 ]}}
}`

func writeStudy(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study_volta.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadDeviceStudyRejectsInconsistent pins that a study whose
// injection tallies contradict each other fails to load, with an error
// naming the file, the tool and the code, instead of half-loading.
func TestLoadDeviceStudyRejectsInconsistent(t *testing.T) {
	if _, err := LoadDeviceStudy(writeStudy(t, smallStudy)); err != nil {
		t.Fatalf("consistent study rejected: %v", err)
	}
	for _, tc := range []struct {
		name, old, new string
		want           []string // substrings of the error besides the file
	}{
		{"null result", `"FMXM": {
  "Name"`, `"FMXM": null, "X": {"Name"`, []string{"NVBitFI FMXM", "null result"}},
		{"whole campaign", `"Injected": 10, "SDC": 4`, `"Injected": 11, "SDC": 4`,
			[]string{"NVBitFI FMXM", "outcomes"}},
		{"class outcomes", `"Injected": 6, "SDC": 4, "DUE": 0, "Masked": 2`, `"Injected": 6, "SDC": 4, "DUE": 0, "Masked": 3`,
			[]string{"NVBitFI FMXM", "class FMA", "outcomes"}},
		{"class DUE modes", `"Masked": 1,
         "DUEModes": {"hang": 1,`, `"Masked": 1,
         "DUEModes": {"hang": 2,`, []string{"NVBitFI FMXM", "class INT", "due_modes"}},
		{"unknown class", `"3": {"Class": 3`, `"7": {"Class": 7`, []string{"NVBitFI FMXM", "unknown class 7"}},
		{"null class", `"2": {"Class": 2, "Injected": 6, "SDC": 4, "DUE": 0, "Masked": 2,
         "Patterns": {"single": 3, "same_row": 1, "critical": 2, "tolerable": 2}},`, `"2": null,`,
			[]string{"NVBitFI FMXM", "class FMA: null"}},
		{"mode patterns", `"ByMode": {"0": {"Injected": 10, "SDC": 4, "DUE": 3, "Masked": 3,
   "Patterns": {"single": 3,`, `"ByMode": {"0": {"Injected": 10, "SDC": 4, "DUE": 3, "Masked": 3,
   "Patterns": {"single": 2,`, []string{"NVBitFI FMXM", "mode IOV", "patterns"}},
		{"unknown mode", `"ByMode": {"0"`, `"ByMode": {"9"`, []string{"NVBitFI FMXM", "unknown mode 9"}},
		{"band magnitudes", `"Masked": 1,
   "Patterns": {"single": 1, "critical": 1}}}
 }}}`, `"Masked": 1,
   "Patterns": {"single": 1, "critical": 1, "tolerable": 1}}}
 }}}`, []string{"NVBitFI FMXM", "band sign", "pattern magnitudes"}},
		{"negative counter", `"Injected": 4, "SDC": 0, "DUE": 3, "Masked": 1`, `"Injected": 4, "SDC": -1, "DUE": 3, "Masked": 2`,
			[]string{"NVBitFI FMXM", "class INT"}},
		{"opt matrix cell", `"Injected": 2, "SDC": 1, "DUE": 0, "Masked": 1,
   "Patterns": {"single": 1, "critical": 1}}}
 ]}}`, `"Injected": 2, "SDC": 1, "DUE": 1, "Masked": 1,
   "Patterns": {"single": 1, "critical": 1}}}
 ]}}`, []string{"optimization matrix NVBitFI FMXM", "cell O2", "outcomes"}},
		{"null opt cell", `"Cells": [
  {"Opt": 2`, `"Cells": [null,
  {"Opt": 2`, []string{"optimization matrix NVBitFI FMXM", "cell 0: null"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(smallStudy, tc.old) {
				t.Fatalf("case does not apply: %q not in the study", tc.old)
			}
			path := writeStudy(t, strings.Replace(smallStudy, tc.old, tc.new, 1))
			_, err := LoadDeviceStudy(path)
			if err == nil {
				t.Fatal("inconsistent study loaded")
			}
			for _, w := range append([]string{path}, tc.want...) {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %q", err, w)
				}
			}
		})
	}
}

// FuzzLoadDeviceStudy holds the study loader to its contract over
// arbitrary bytes: either an error, or a study that saves, reloads and
// saves again to identical bytes. The seed corpus in
// testdata/fuzz/FuzzLoadDeviceStudy holds a small valid study, a
// truncated copy and a count mismatch.
func FuzzLoadDeviceStudy(f *testing.F) {
	f.Add([]byte(smallStudy))
	dir := f.TempDir()
	in := filepath.Join(dir, "in.json")
	out := filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := LoadDeviceStudy(in)
		if err != nil {
			return
		}
		save := func(ds *DeviceStudy) []byte {
			if err := ds.SaveJSON(out); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		first := save(ds)
		again, err := LoadDeviceStudy(out)
		if err != nil {
			t.Fatalf("saved study does not load: %v\n%s", err, first)
		}
		if second := save(again); !bytes.Equal(first, second) {
			t.Fatalf("study round trip is not stable:\n%s\n%s", first, second)
		}
	})
}
