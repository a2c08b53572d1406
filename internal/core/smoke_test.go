package core

import (
	"strings"
	"testing"

	"repro/internal/report"
)

func TestSmokeAllExperiments(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			doc := goldenRunAt(t, 1, e.ID).doc
			if len(doc.Sections) == 0 {
				t.Fatalf("%s: document has no sections", e.ID)
			}
			if doc.Experiment != e.ID || doc.Title != e.Title || len(doc.Params) == 0 {
				t.Fatalf("%s: metadata not stamped: %+v", e.ID, doc)
			}
			if !strings.Contains(report.Text(doc), "==") {
				t.Fatalf("%s: text rendering lacks section header", e.ID)
			}
		})
	}
}
