package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// Virtual-time units are spelled out so nothing downstream mistakes an
// exact simulated quantity for a measured host time.
const (
	unitVirtSec  = "virt-sec"
	unitVirtMsec = "virt-msec"
)

// protocolLedger is the exact per-run protocol accounting read from the
// public Stats, Latency and RCStats of one run. On the simulated ring
// every value repeats bit for bit, so these are the check that a host
// time gain did not change behaviour.
func protocolLedger(res apps.Result) []metric {
	var accesses, rf, wf, up, sent, inval, ctx uint64
	var stall time.Duration
	for _, n := range res.Stats.Nodes {
		accesses += n.SVM.ReadAccesses + n.SVM.WriteAccesses
		rf += n.SVM.ReadFaults
		wf += n.SVM.WriteFaults
		up += n.SVM.LocalUpgrades
		sent += n.SVM.PagesSent
		inval += n.SVM.InvalSent
		stall += n.SVM.FaultStall
		ctx += n.Proc.CtxSwitches
	}
	var twins, commits, words, fetches, acquires, notices, rebinds uint64
	for _, s := range res.RC {
		twins += s.TwinsMade
		commits += s.DiffCommits
		words += s.DiffWords
		fetches += s.Fetches
		acquires += s.Acquires
		notices += s.NoticesPosted
		rebinds += s.Rebinds
	}
	count := func(name string, v uint64) metric { return metric{name, "count", float64(v)} }
	vms := func(name string, d time.Duration) metric {
		return metric{name, unitVirtMsec, float64(d) / float64(time.Millisecond)}
	}
	lat := res.Latency
	return []metric{
		count("access.count", accesses),
		count("core.read_faults", rf),
		count("core.write_faults", wf),
		count("core.local_upgrades", up),
		count("core.pages_sent", sent),
		count("core.inval_sent", inval),
		{"core.fault_stall_virt_s", unitVirtSec, stall.Seconds()},
		vms("core.read_fault_virt_ms_p50", lat.ReadFault.Quantile(0.5)),
		vms("core.write_fault_virt_ms_p50", lat.WriteFault.Quantile(0.5)),
		vms("core.inval_round_virt_ms_p50", lat.Inval.Quantile(0.5)),
		count("ring.packets", res.Stats.Packets),
		count("ring.bytes", res.Stats.NetBytes),
		{"ring.wire_busy_virt_s", unitVirtSec, res.Stats.WireBusy.Seconds()},
		count("remop.forwards", res.Stats.Forwards),
		count("remop.retransmissions", res.Stats.Retransmissions),
		count("remop.broadcasts", res.Stats.Broadcasts),
		count("proc.ctx_switches", ctx),
		count("rc.twins_made", twins),
		count("rc.diff_commits", commits),
		count("rc.diff_words", words),
		count("rc.fetches", fetches),
		count("rc.acquires", acquires),
		count("rc.notices_posted", notices),
		count("rc.rebinds", rebinds),
	}
}

// exactDiff names the first exact quantity on which two runs of one
// deterministic simulation differ, or returns "".
func exactDiff(a, b apps.Result) string {
	if a.Elapsed != b.Elapsed {
		return fmt.Sprintf("virtual time %v vs %v", a.Elapsed, b.Elapsed)
	}
	la, lb := protocolLedger(a), protocolLedger(b)
	for i := range la {
		if la[i].value != lb[i].value {
			return fmt.Sprintf("%s %v vs %v", la[i].name, la[i].value, lb[i].value)
		}
	}
	return ""
}
