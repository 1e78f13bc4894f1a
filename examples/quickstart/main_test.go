package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestQuickstart(t *testing.T) {
	exampletest.Run(t, run,
		`[sub1a]   SQL row User/2 = "Rear Admiral Grace Hopper" <grace@example.com>`,
		`[sub1b]   search "grace" -> User/2`,
		"quickstart: OK")
}
