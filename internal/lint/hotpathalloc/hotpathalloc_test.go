package hotpathalloc_test

import (
	"strings"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/hotpathalloc"
)

func TestHotPathAlloc(t *testing.T) {
	diags := analysistest.RunFull(t, "testdata/src", hotpathalloc.Analyzer)

	// The pooled-buffer idiom (collector.deferPair): one append finding
	// silenced by //nolint:hotpathalloc with a justification — it must
	// register as suppressed, not active, and carry its reason.
	var suppressed int
	for _, d := range diags {
		if !d.Suppressed {
			continue
		}
		suppressed++
		if !strings.Contains(d.Reason, "pooled buffer") {
			t.Errorf("%s: unexpected suppression reason %q", d.Position, d.Reason)
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed findings = %d, want 1", suppressed)
	}
}
