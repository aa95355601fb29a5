// Package table5 holds only the Table 5 golden test. The table is
// produced by `scenario run scenarios/table5.yaml`; this test renders the
// same spec through the run service's stored path (see
// golden.CheckServiceRender) against cmd/scenario's fixture.
package table5

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/raceflag"
)

func TestGolden(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	golden.CheckServiceRender(t, "../../scenarios/table5.yaml", "../scenario/testdata/table5.golden")
}
