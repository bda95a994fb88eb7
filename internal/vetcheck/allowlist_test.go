package vetcheck

import "testing"

func TestAllowlist(t *testing.T) {
	tree, err := LoadSource(map[string]string{
		"internal/kernel/w.go": `package kernel

// grow has a justified waiver.
//
//popcornvet:allow kernlocal resolves this kernel's own endpoint
func grow() {
	//popcornvet:allow simtime harness-only timer
	helper()
	//popcornvet:allow bogusrule not a real analyzer
	//popcornvet:allow kernlocal
	helper()
}

func helper() {}
`,
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	got := Allowlist(tree)
	if len(got) != 2 {
		t.Fatalf("got %d waivers, want 2 (unknown rule and missing justification excluded): %+v", len(got), got)
	}
	if got[0].Analyzer != "kernlocal" || got[0].Justification != "resolves this kernel's own endpoint" {
		t.Errorf("waiver 0 = %+v", got[0])
	}
	if got[1].Analyzer != "simtime" || got[1].Justification != "harness-only timer" {
		t.Errorf("waiver 1 = %+v", got[1])
	}
	if got[0].Line >= got[1].Line {
		t.Errorf("waivers not sorted by line: %d then %d", got[0].Line, got[1].Line)
	}
}
