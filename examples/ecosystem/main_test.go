package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestEcosystem(t *testing.T) {
	exampletest.Run(t, run,
		"[spree]     alice's interests: [coffee hiking keyboards]",
		"[spree]     recommended for alice: [Artisan espresso machine Clacky mechanical keyboard Ultralight tent]",
		"ecosystem: OK")
}
