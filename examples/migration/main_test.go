package main

import (
	"testing"

	"synapse/examples/internal/exampletest"
)

func TestMigration(t *testing.T) {
	exampletest.Run(t, run,
		"[main-v1]  100 users on MongoDB",
		"[main-v2]  bootstrapped 100 users onto TokuMX",
		"[main-v2]  live writes tracked; load balancer can switch with no downtime",
		"[audit]    still receives email via the virtual alias",
		"[audit]    picked up the new 'tier' attribute after a partial bootstrap",
		"migration: OK")
}
