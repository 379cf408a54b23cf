package main

// defaultSeed is the seed whose outputs are pinned byte for byte.
const defaultSeed = 1

// Digests of the default seed's outputs: the SHA-256 of the first campaign
// leg's JSON report and of the first sim pass's recorded trace. Any change
// to program generation, verdicts, the report format, the arrival
// generator, the timed machine or the trace format moves them.
const (
	pinnedCampaignReport = "d2b56c8dd17e11c4755b017161c4e8c75f1097ac4b51f423d02a2a5b531a3e45"
	pinnedSimTrace       = "bde9a2588fb2c4804196a2e6d6e6e275424e36230493a1867cc2b32427f5ebf5"
)
