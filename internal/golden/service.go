package golden

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// CheckServiceRender renders the canned scenario at specPath the way
// the run service does and compares the bytes with the fixture at
// fixturePath. The request goes through its canonical encoding, the
// result through the disk tier's JSON codec, and the table through
// bench.PresentResult, so a fixture the scenario command writes must
// come back unchanged from what the service stores. The fixtures live
// with cmd/scenario; regenerate them with `go test ./cmd/scenario -update`.
// It returns the rendering so callers can check claims on it.
func CheckServiceRender(t *testing.T, specPath, fixturePath string) []byte {
	t.Helper()
	spec, err := scenario.Load(specPath)
	if err != nil {
		t.Fatal(err)
	}
	req, err := bench.DecodeCanonical(spec.Request().Canonical())
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := bench.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = bench.DecodeResult(stored); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.PresentResult(&buf, req, res); err != nil {
		t.Fatal(err)
	}
	Check(t, buf.Bytes(), fixturePath, false)
	return buf.Bytes()
}
