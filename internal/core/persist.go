package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"gpurel/internal/analysis"
	"gpurel/internal/beam"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/fit"
	"gpurel/internal/isa"
	"gpurel/internal/patterns"
	"gpurel/internal/profiler"
)

// Study results persist as JSON so the report renderers (and external
// plotting) can re-consume a campaign without re-running it. Struct-
// keyed maps are flattened into slices for encoding/json.

type beamEntryJSON struct {
	Code   string
	ECC    bool
	Result *beam.Result
}

type predEntryJSON struct {
	Code       string
	ECC        bool
	Tool       string
	Prediction fit.Prediction
}

type deviceStudyJSON struct {
	Device         string
	MicroBeam      map[string]*beam.Result
	Units          *fit.UnitFITs
	Profiles       map[string]*profiler.CodeProfile
	AVF            map[string]map[string]*faultinj.Result
	StaticAVF      map[string]*analysis.Estimate
	ScalarAVF      map[string]*analysis.Estimate
	StaticDUEModes map[string]*analysis.DUEModeEstimate
	OptMatrix      map[string]*faultinj.OptMatrix
	TwoLevel       map[string]*faultinj.TwoLevelResult
	Beam           []beamEntryJSON
	Predictions    []predEntryJSON
	Comparisons    []fit.Comparison
	StaticHidden   map[string]*analysis.HiddenEstimate
	MeasuredHidden map[string]*analysis.HiddenEstimate
	DUE            map[string]float64
	DUECorrected   map[string]float64
	DUEMeasured    map[string]float64
}

func toolByName(name string) (faultinj.Tool, error) {
	switch name {
	case faultinj.Sassifi.String():
		return faultinj.Sassifi, nil
	case faultinj.NVBitFI.String():
		return faultinj.NVBitFI, nil
	default:
		return 0, fmt.Errorf("core: unknown tool %q", name)
	}
}

// SaveJSON writes the study to path.
func (ds *DeviceStudy) SaveJSON(path string) error {
	out := deviceStudyJSON{
		Device:         ds.Dev.Name,
		MicroBeam:      ds.MicroBeam,
		Units:          ds.Units,
		Profiles:       ds.Profiles,
		AVF:            map[string]map[string]*faultinj.Result{},
		StaticAVF:      ds.StaticAVF,
		ScalarAVF:      ds.ScalarAVF,
		StaticDUEModes: ds.StaticDUEModes,
		OptMatrix:      ds.OptMatrix,
		TwoLevel:       ds.TwoLevel,
		StaticHidden:   ds.StaticHidden,
		MeasuredHidden: ds.MeasuredHidden,
		DUE:            map[string]float64{},
		DUECorrected:   map[string]float64{},
		DUEMeasured:    map[string]float64{},
	}
	for tool, byCode := range ds.AVF {
		out.AVF[tool.String()] = byCode
	}
	// Emit struct-keyed maps in sorted key order so the artifact is
	// byte-stable across runs (map iteration order is randomized).
	for _, key := range sortedBeamKeys(ds.Beam) {
		out.Beam = append(out.Beam, beamEntryJSON{Code: key.Code, ECC: key.ECC, Result: ds.Beam[key]})
	}
	predKeys := make([]PredKey, 0, len(ds.Predictions))
	for key := range ds.Predictions {
		predKeys = append(predKeys, key)
	}
	sort.Slice(predKeys, func(i, j int) bool {
		a, b := predKeys[i], predKeys[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.ECC != b.ECC {
			return !a.ECC
		}
		return a.Tool < b.Tool
	})
	for _, key := range predKeys {
		out.Predictions = append(out.Predictions, predEntryJSON{
			Code: key.Code, ECC: key.ECC, Tool: key.Tool.String(), Prediction: ds.Predictions[key],
		})
	}
	// JSON cannot carry infinities; zero-event comparisons (ratio ±Inf)
	// round-trip as ratio 0, which the renderers already display as
	// "n/a (0 events)".
	out.Comparisons = make([]fit.Comparison, len(ds.Comparisons))
	copy(out.Comparisons, ds.Comparisons)
	for i := range out.Comparisons {
		if math.IsInf(out.Comparisons[i].Ratio, 0) {
			out.Comparisons[i].Ratio = 0
		}
	}
	for ecc, v := range ds.DUEUnderestimate {
		out.DUE[eccKey(ecc)] = v
	}
	for ecc, v := range ds.DUECorrectedUnderestimate {
		out.DUECorrected[eccKey(ecc)] = v
	}
	for ecc, v := range ds.DUEMeasuredUnderestimate {
		out.DUEMeasured[eccKey(ecc)] = v
	}
	return WriteJSONAtomic(path, out)
}

// WriteJSONAtomic marshals v (indented, trailing newline-free like
// MarshalIndent) and renames it into place over path, so a reader — or
// a crash mid-write — never observes a torn file. Study artifacts and
// the serve daemon's campaign checkpoints both persist through it: a
// checkpoint that a campaign will later resume from must be all-or-
// nothing, or the resumed trial sequence would diverge.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshaling %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadJSON unmarshals the file at path into v, the counterpart of
// WriteJSONAtomic.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("core: parsing %s: %w", path, err)
	}
	return nil
}

// LoadDeviceStudy reads a study saved by SaveJSON. It refuses a study
// whose injection tallies contradict each other (see checkResult)
// rather than load part of it.
func LoadDeviceStudy(path string) (*DeviceStudy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in deviceStudyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	var dev *device.Device
	switch in.Device {
	case "Tesla K40c":
		dev = device.K40c()
	case "Tesla V100":
		dev = device.V100()
	case "Titan V":
		dev = device.TitanV()
	default:
		return nil, fmt.Errorf("core: unknown device %q in %s", in.Device, path)
	}
	ds := &DeviceStudy{
		Dev:                       dev,
		MicroBeam:                 in.MicroBeam,
		Units:                     in.Units,
		Profiles:                  in.Profiles,
		AVF:                       map[faultinj.Tool]map[string]*faultinj.Result{},
		StaticAVF:                 in.StaticAVF,
		ScalarAVF:                 in.ScalarAVF,
		StaticDUEModes:            in.StaticDUEModes,
		OptMatrix:                 in.OptMatrix,
		TwoLevel:                  in.TwoLevel,
		Beam:                      map[BeamKey]*beam.Result{},
		Predictions:               map[PredKey]fit.Prediction{},
		Comparisons:               in.Comparisons,
		StaticHidden:              in.StaticHidden,
		MeasuredHidden:            in.MeasuredHidden,
		DUEUnderestimate:          map[bool]float64{},
		DUECorrectedUnderestimate: map[bool]float64{},
		DUEMeasuredUnderestimate:  map[bool]float64{},
	}
	if ds.StaticAVF == nil {
		ds.StaticAVF = map[string]*analysis.Estimate{}
	}
	if ds.ScalarAVF == nil {
		ds.ScalarAVF = map[string]*analysis.Estimate{}
	}
	// Studies saved before the DUE-mode taxonomy carry no mode
	// distributions; load them with an empty (not nil) map so renderers
	// can range over it unconditionally.
	if ds.StaticDUEModes == nil {
		ds.StaticDUEModes = map[string]*analysis.DUEModeEstimate{}
	}
	if ds.OptMatrix == nil {
		ds.OptMatrix = map[string]*faultinj.OptMatrix{}
	}
	if ds.TwoLevel == nil {
		ds.TwoLevel = map[string]*faultinj.TwoLevelResult{}
	}
	if ds.StaticHidden == nil {
		ds.StaticHidden = map[string]*analysis.HiddenEstimate{}
	}
	if ds.MeasuredHidden == nil {
		ds.MeasuredHidden = map[string]*analysis.HiddenEstimate{}
	}
	for toolName, byCode := range in.AVF {
		tool, err := toolByName(toolName)
		if err != nil {
			return nil, err
		}
		for _, code := range sortedKeys(byCode) {
			if err := checkResult(byCode[code]); err != nil {
				return nil, fmt.Errorf("core: %s: %s %s: %w", path, tool, code, err)
			}
		}
		ds.AVF[tool] = byCode
	}
	for _, code := range sortedKeys(ds.OptMatrix) {
		m := ds.OptMatrix[code]
		if m == nil {
			return nil, fmt.Errorf("core: %s: optimization matrix %s: null", path, code)
		}
		for i, cell := range m.Cells {
			if cell == nil {
				return nil, fmt.Errorf("core: %s: optimization matrix %s %s: cell %d: null", path, m.Tool, code, i)
			}
			if err := checkResult(cell.Dynamic); err != nil {
				return nil, fmt.Errorf("core: %s: optimization matrix %s %s: cell %s: %w", path, m.Tool, code, cell.Opt, err)
			}
		}
	}
	for _, e := range in.Beam {
		ds.Beam[BeamKey{Code: e.Code, ECC: e.ECC}] = e.Result
	}
	for _, p := range in.Predictions {
		tool, err := toolByName(p.Tool)
		if err != nil {
			return nil, err
		}
		ds.Predictions[PredKey{Code: p.Code, ECC: p.ECC, Tool: tool}] = p.Prediction
	}
	for k, v := range in.DUE {
		ds.DUEUnderestimate[k == "on"] = v
	}
	for k, v := range in.DUECorrected {
		ds.DUECorrectedUnderestimate[k == "on"] = v
	}
	for k, v := range in.DUEMeasured {
		ds.DUEMeasuredUnderestimate[k == "on"] = v
	}
	return ds, nil
}

// checkResult rejects an injection result read back from disk whose
// tallies contradict each other (faultinj.(*Tally).Check): the whole
// campaign's and every class's, mode's and bit band's. A study saved
// before the pattern or DUE-mode taxonomy carries no ledgers; an
// all-zero ledger is read as all unclassified.
func checkResult(res *faultinj.Result) error {
	if res == nil {
		return errors.New("null result")
	}
	if err := checkTally(res.Tally); err != nil {
		return err
	}
	for _, c := range sortedKeys(res.PerClass) {
		ca := res.PerClass[c]
		switch {
		case c >= isa.ClassCount:
			return fmt.Errorf("unknown class %d", c)
		case ca == nil:
			return fmt.Errorf("class %s: null", c)
		}
		if err := checkTally(ca.Tally); err != nil {
			return fmt.Errorf("class %s: %w", c, err)
		}
	}
	for _, m := range sortedKeys(res.ByMode) {
		ma := res.ByMode[m]
		switch {
		case m > faultinj.ModeGPR:
			return fmt.Errorf("unknown mode %d", m)
		case ma == nil:
			return fmt.Errorf("mode %s: null", m)
		}
		if err := checkTally(ma.Tally); err != nil {
			return fmt.Errorf("mode %s: %w", m, err)
		}
	}
	for _, b := range sortedKeys(res.ByBand) {
		ba := res.ByBand[b]
		if ba == nil {
			return fmt.Errorf("band %s: null", b)
		}
		if err := checkTally(ba.Tally); err != nil {
			return fmt.Errorf("band %s: %w", b, err)
		}
	}
	return nil
}

func checkTally(t faultinj.Tally) error {
	if t.Patterns == (patterns.Ledger{}) {
		t.Patterns.Unclassified = t.SDC
	}
	if t.DUEModes == (patterns.DUELedger{}) {
		t.DUEModes.Unattributed = t.DUE
	}
	return t.Check()
}

// sortedKeys returns m's keys in ascending order, so the first
// inconsistency a loader reports does not depend on map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func eccKey(ecc bool) string {
	if ecc {
		return "on"
	}
	return "off"
}
