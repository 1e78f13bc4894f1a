package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestCrowdtap(t *testing.T) {
	exampletest.Run(t, run,
		"crowdtap: 9 services on the fabric: [analytics fb-crawler mailer main moderation reporting search-engine spree targeting]",
		"             mastercard   7",
		"             sony         7",
		"             verizon      6",
		"[targeting] u09: points=29 social_reach=900 (merged from 2 publishers)",
		"crowdtap: OK")
}
