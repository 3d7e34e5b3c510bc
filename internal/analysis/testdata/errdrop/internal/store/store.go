// Package store is an errdrop fixture: silently dropped error returns
// in internal packages are flagged; explicit discards are not. An
// allow on a line errdrop does not flag suppresses nothing and is
// itself reported as stale.
package store

import "errors"

// save returns an error that callers must not drop.
func save(path string) error {
	if path == "" {
		return errors.New("empty path")
	}
	return nil
}

type closer struct{}

// Close returns an error by stdlib convention.
func (c *closer) Close() error { return nil }

// note returns nothing; bare calls are fine.
func note() {}

type journal struct{}

// save shares its name with the package-level save but returns
// nothing: a bare call resolves to this method and is fine.
func (journal) save(string) {}

// Flow exercises every drop pattern.
func Flow(c *closer, j journal) error {
	save("dropped") // want "save"
	c.Close()       // want "Close"
	_ = save("explicit discard is visible")
	defer c.Close() // defer cleanups have nowhere to put the error
	defer c.Close() //overhaul:allow errdrop defers are exempt already // want "stale suppression: suppresses no errdrop finding"
	note()
	j.save("no error to drop")
	if err := save("handled"); err != nil {
		return err
	}
	save("annotated") //overhaul:allow errdrop fixture demonstrates suppression
	return nil
}
