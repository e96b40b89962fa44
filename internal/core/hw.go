package core

import (
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

// HWOverheadResult carries the paper's §7.5 hardware-overhead analysis.
type HWOverheadResult struct {
	Overhead power.Overhead
	Table    *stats.Table
}

// RunHWOverhead reproduces paper §7.5: the area and power cost of the
// counters Warped Gates adds to each SM, relative to the SM totals.
func RunHWOverhead(numSPClusters int) *HWOverheadResult {
	specs := power.WarpedGatesCounters(numSPClusters)
	return &HWOverheadResult{
		Overhead: power.HardwareOverhead(specs),
		Table:    power.OverheadTable(specs),
	}
}
