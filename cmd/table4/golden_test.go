// Package table4 holds only the Table 4 golden test. The table is
// produced by `scenario run scenarios/table4.yaml`; this test renders the
// same spec through the run service's stored path (see
// golden.CheckServiceRender) against cmd/scenario's fixture.
package table4

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/raceflag"
)

func TestGolden(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	golden.CheckServiceRender(t, "../../scenarios/table4.yaml", "../scenario/testdata/table4.golden")
}
