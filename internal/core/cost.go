package core

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// The cost model behind the job schedule: a per-job cost prediction keyed by
// (bench, sms, scale, sampling), used only to *order* work (LPT admission) —
// never to change what a job computes, so a wrong prediction costs wall
// time, not correctness.
//
// Predictions come from a committed calibration table (costdata.json,
// regenerated deterministically by `go test ./internal/core -run CostTable
// -update`): the device cycles each benchmark runs at one reference point.
// Device cycles are deterministic, so the table — and with it the dispatch
// order — is the same on any machine and for every batch of a process.

// Calibration reference point. The committed table is measured at this
// geometry and scale; predictions extrapolate linearly from it. Two SMs keeps
// regeneration cheap while exercising the shared memory system.
const (
	CalCostSMS   = 2
	CalCostScale = 0.1
)

// CostCell is one benchmark's calibration measurement at the reference point.
type CostCell struct {
	Bench  string `json:"bench"`
	Cycles int64  `json:"cycles"`
	Instrs uint64 `json:"instrs"`
}

// CostTable is the committed calibration artifact: deterministic per-bench
// device cycles at the reference point, in kernels.BenchmarkNames order.
type CostTable struct {
	Version   int        `json:"version"`
	SMS       int        `json:"sms"`
	Scale     float64    `json:"scale"`
	Technique string     `json:"technique"`
	Cells     []CostCell `json:"cells"`
}

// Encode renders the table as the canonical committed form: indented JSON
// with a trailing newline, cells in benchmark order. Byte-deterministic, so
// regenerating an unchanged table produces an unchanged file.
func (t *CostTable) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CalibrateCostTable measures every paper benchmark at the calibration
// reference point (Baseline technique, serial engine) and returns the table.
// Cycle counts are deterministic, so repeated calibrations — on any machine —
// produce identical tables.
func CalibrateCostTable() (*CostTable, error) {
	base := config.GTX480()
	base.NumSMs = CalCostSMS
	r := NewRunner(base)
	r.Scale = CalCostScale
	t := &CostTable{
		Version:   1,
		SMS:       CalCostSMS,
		Scale:     CalCostScale,
		Technique: Baseline.String(),
	}
	for _, b := range kernels.BenchmarkNames {
		rep, err := r.Run(b, Baseline)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s: %w", b, err)
		}
		t.Cells = append(t.Cells, CostCell{Bench: b, Cycles: rep.Cycles, Instrs: rep.IssuedTotal})
	}
	return t, nil
}

//go:embed costdata.json
var costData []byte

var (
	defaultCostOnce sync.Once
	defaultCost     *CostModel
)

// DefaultCostModel returns the process-wide model over the committed
// calibration table, decoded on first use.
func DefaultCostModel() *CostModel {
	defaultCostOnce.Do(func() {
		var t CostTable
		if err := json.Unmarshal(costData, &t); err != nil {
			// An undecodable committed table cannot fail runs: predictions
			// degrade to uniform and LPT becomes submission order.
			t = CostTable{SMS: CalCostSMS, Scale: CalCostScale}
		}
		defaultCost = NewCostModel(&t)
	})
	return defaultCost
}

// CostModel predicts per-job cost. It is immutable once built, so it is safe
// for concurrent use.
type CostModel struct {
	calSMS   float64
	calScale float64
	// base is the calibration prior: reference-point device cycles per bench.
	base map[string]float64
	// mean is the prior for benches absent from the table, so ordering stays
	// total even for workloads the committed table predates.
	mean float64
}

// NewCostModel builds a model over a calibration table.
func NewCostModel(t *CostTable) *CostModel {
	m := &CostModel{
		calSMS:   float64(t.SMS),
		calScale: t.Scale,
		base:     make(map[string]float64, len(t.Cells)),
		mean:     1,
	}
	if m.calSMS <= 0 {
		m.calSMS = CalCostSMS
	}
	if m.calScale <= 0 {
		m.calScale = CalCostScale
	}
	var sum float64
	for _, c := range t.Cells {
		m.base[c.Bench] = float64(c.Cycles)
		sum += float64(c.Cycles)
	}
	if len(t.Cells) > 0 {
		m.mean = sum / float64(len(t.Cells))
	}
	return m
}

// Predict extrapolates the calibration cycles to the job's geometry: work
// scales with the kernel scale (iterations and CTAs) and with the SM count
// (CTAsPerSM is per-SM, so a bigger array carries proportionally more work);
// a sampled run simulates roughly its detail fraction of the cycles. The unit
// is calibration cycles — relative order is all LPT needs.
func (m *CostModel) Predict(bench string, cfg config.Config, scale float64) float64 {
	cycles, ok := m.base[bench]
	if !ok {
		cycles = m.mean
	}
	p := cycles * (scale / m.calScale) * (float64(cfg.NumSMs) / m.calSMS)
	if cfg.Sampling() {
		frac := float64(cfg.SampleDetailCycles) / float64(cfg.SamplePeriod)
		if frac < 0.05 {
			frac = 0.05
		}
		p *= frac
	}
	return p
}
