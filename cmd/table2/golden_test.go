// Package table2 holds only the Table 2 golden test. The table is
// produced by `scenario run scenarios/table2.yaml`; this test renders the
// same spec through the run service's stored path (see
// golden.CheckServiceRender) against cmd/scenario's fixture.
package table2

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/raceflag"
)

func TestGolden(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	golden.CheckServiceRender(t, "../../scenarios/table2.yaml", "../scenario/testdata/table2.golden")
}
