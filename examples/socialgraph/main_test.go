package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestSocialgraph(t *testing.T) {
	exampletest.Run(t, run,
		"[sub2] alice's 2-hop network: [bob carol]",
		"[sub2] recommendations for alice: [headlamp mechanical-keyboard trail-shoes]",
		"[sub2] after unfriending, alice's network: [bob]",
		"socialgraph: OK")
}
