package sweep

// The per-type axis helpers the property tests size grids with, as
// instantiations of Expand's generic ones.
var (
	dedupStrings  = dedup[string]
	dedupInts     = dedup[int]
	dedupFloats   = dedup[float64]
	dedupUints    = dedup[uint64]
	defaultInts   = orDefault[int]
	defaultFloats = orDefault[float64]
	defaultUints  = orDefault[uint64]
)
