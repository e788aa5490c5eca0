package lint

import "testing"

// TestSelfLint is the regression gate: the real tree must stay free of
// findings.
func TestSelfLint(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("finding: %s", d)
	}
}
