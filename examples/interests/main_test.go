package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestInterests(t *testing.T) {
	exampletest.Run(t, run,
		`[sub3a] User/100 interests_text = "cats,dogs" (no efficient queries)`,
		"[sub3b] users interested in dogs (indexed query): [100 101]",
		"[sub3b] after update, User/100 rows resynced to {dogs, hiking}",
		"interests: OK")
}
