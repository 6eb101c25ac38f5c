package main

// expected holds the outputs recorded at the default seed. A run at
// another seed has no recorded values and relies on the invariant checks.
var expected = struct {
	// Fig2 maps a technique to its recorded matrix summary line.
	Fig2 map[string]string
	// Ctl holds the digests of the first dry-run's predicted state.
	CtlRouteStateSHA256, CtlFIBSHA256, CtlDNSZoneSHA256 string
}{
	Fig2: map[string]string{
		"proactive-superprefix": "n=480 recon_p50=52.6 failover_p50=97.7 failover_p90=144.2",
		"reactive-anycast":      "n=480 recon_p50=6.0 failover_p50=7.6 failover_p90=12.1",
		"proactive-prepending":  "n=480 recon_p50=7.6 failover_p50=16.6 failover_p90=76.6",
		"anycast":               "n=461 recon_p50=4.6 failover_p50=6.1 failover_p90=10.7",
	},
	CtlRouteStateSHA256: "7ba5201c4d9674af107e984677a5ce21bd33b7260155bb671270b3a92757bffd",
	CtlFIBSHA256:        "86b9df68653f485b732a8ef1794faf9763cf9163d22af9c1af91b786cdf2cff3",
	CtlDNSZoneSHA256:    "b47f23b6183409a4f2e2e98795fee6818ea7b6b66fa51b8bf377be42d22609d1",
}
