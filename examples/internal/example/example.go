// Package example is what the programs under examples/ share: a one-line
// error check and a replication wait that abort a program's run, the
// recover that turns the abort back into run's error, and the main that
// prints run's output.
package example

import (
	"errors"
	"io"
	"log"
	"os"
	"time"
)

// failure is the panic value Check and WaitUntil abort run with.
type failure struct{ err error }

// Check aborts run with err unless err is nil.
func Check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// WaitUntil polls cond until it holds, and aborts run after ten seconds.
func WaitUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			Check(errors.New("timed out waiting for replication"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Recover, deferred first thing in run, returns an abort from Check or
// WaitUntil as run's error once run's other defers have stopped its
// workers. Any other panic goes on.
func Recover(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}

// Main runs a program on stdout and exits 1 on its error.
func Main(run func(w io.Writer) error) {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
