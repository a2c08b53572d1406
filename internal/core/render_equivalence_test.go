package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestRendererEquivalence is the renderer contract for the typed result
// model, checked for every registered experiment:
//
//   - report.Text(doc) is byte-identical to the pre-refactor merge
//     output (the checked-in golden files, which predate the Doc model);
//   - the canonical JSON encoding is deterministic (two encodes agree),
//     round-trips through encoding/json losslessly, and re-renders to
//     the same text after the round trip;
//   - the CSV rendering is non-empty and every non-comment line parses
//     as RFC 4180 CSV.
//
// Reads the serial run of the shared golden fixture, so nothing is
// recomputed.
func TestRendererEquivalence(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			doc := goldenRunAt(t, 1, e.ID).doc

			want, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			text := report.Text(doc)
			if text != string(want) {
				t.Errorf("report.Text differs from pre-refactor golden output")
			}

			j1, err := report.JSON(doc)
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			j2, _ := report.JSON(doc)
			if !bytes.Equal(j1, j2) {
				t.Error("canonical JSON is not deterministic across encodes")
			}
			var round report.Doc
			if err := json.Unmarshal(j1, &round); err != nil {
				t.Fatalf("JSON does not round-trip: %v", err)
			}
			j3, err := report.JSON(&round)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(j1, j3) {
				t.Error("JSON round trip changed the canonical encoding")
			}
			if report.Text(&round) != text {
				t.Error("text rendering changed after a JSON round trip")
			}

			csvOut := report.CSV(doc)
			if csvOut == "" || !strings.HasPrefix(csvOut, "# experiment: "+e.ID+"\n") {
				t.Fatalf("CSV rendering malformed: %q", firstLine(csvOut))
			}
			var data strings.Builder
			for _, line := range strings.Split(csvOut, "\n") {
				if line == "" || strings.HasPrefix(line, "# ") {
					continue
				}
				data.WriteString(line)
				data.WriteByte('\n')
			}
			r := csv.NewReader(strings.NewReader(data.String()))
			r.FieldsPerRecord = -1 // sections have different widths
			if _, err := r.ReadAll(); err != nil {
				t.Fatalf("CSV data rows do not parse: %v", err)
			}
		})
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
