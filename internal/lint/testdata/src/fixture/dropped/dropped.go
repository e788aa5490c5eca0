// Package dropped seeds discarded module-internal errors, the exempt
// shapes, and the suppression directives — including the malformed
// directives the runner must refuse to honor.
package dropped

import (
	"fmt"

	"fixture/pager"
)

func mutate() error { return nil }

func pair() (int, error) { return 0, nil }

// Discard drops the error of a bare statement call.
func Discard() {
	mutate() // want "dropped.mutate returns an error that is discarded"
}

// StaleSuppression carries a directive whose finding no longer exists:
// the runner reports the directive itself.
func StaleSuppression() error {
	//lint:ignore droppederr the mutation this once excused was deleted
	return nil // want "stale //lint:ignore directive: droppederr reports nothing here"
}

// Blank drops the error through the blank identifier.
func Blank() {
	_, _ = pair() // want "error result of dropped.pair assigned to _"
}

// BlankSingle drops a lone error result through the blank identifier.
func BlankSingle() {
	_ = mutate() // want "error result of dropped.mutate assigned to _"
}

// DropMethod drops a module-internal interface method's error.
func DropMethod(pg pager.Pager) {
	pg.Close() // want "pager.Pager.Close returns an error that is discarded"
}

// tree stands in for a module type whose mutator reports failure.
type tree struct{ pg pager.Pager }

func (t *tree) insert(key int) error { return nil }

// index reaches the mutator through a field, as the real Index reaches
// its B+-tree.
type index struct{ t *tree }

// DropFieldMethod drops a concrete mutator's error behind a field.
func (ix *index) DropFieldMethod() {
	ix.t.insert(1) // want "dropped.tree.insert returns an error that is discarded"
}

// DeferExempt may drop the error: there is nowhere to return it.
func DeferExempt(pg pager.Pager) error {
	defer pg.Close()
	var p pager.Page
	return pg.Read(0, &p)
}

// GoExempt spawns the call; the error belongs to the goroutine.
func GoExempt() {
	//lint:ignore goroutinelife fixture: fire-and-forget spawn seeds droppederr's go exemption, not a lifecycle idiom
	go mutate()
}

// Handled checks the error: clean.
func Handled() error {
	if err := mutate(); err != nil {
		return err
	}
	return nil
}

// StdlibExempt drops a standard-library result, out of scope here.
func StdlibExempt() {
	fmt.Println("stdlib results are go vet's business")
}

// Suppressed demonstrates the line-above directive.
func Suppressed() {
	//lint:ignore droppederr fixture demonstrates best-effort drops
	mutate()
}

// SuppressedSameLine demonstrates the same-line directive.
func SuppressedSameLine() {
	mutate() //lint:ignore droppederr fixture demonstrates same-line suppression
}

// Malformed's directive lacks a reason, so it must not suppress.
func Malformed() {
	//lint:ignore droppederr
	// want "malformed //lint:ignore directive"
	mutate() // want "dropped.mutate returns an error that is discarded"
}

// UnknownAnalyzer's directive names no known analyzer.
func UnknownAnalyzer() {
	//lint:ignore nosuchanalyzer because reasons
	// want "names unknown analyzer nosuchanalyzer"
	mutate() // want "dropped.mutate returns an error that is discarded"
}
