"""A cohort running as separate OS processes — byte-identical to in-process.

Runs the same 4-peer decentralized scenario twice: once in one
interpreter (the reference driver) and once with the peers' compute
sharded across two worker processes (``runtime="multiprocess"``) while
the coordinator keeps the ledger.  The runtime is a pure process-topology
knob, so the final model digests, accuracy tables, and chain shape match
exactly — the example prints both along with the wire traffic the
multiprocess run paid.  It then does the same for ``faults/lossy``:
injected faults fire in the coordinator's driver under both runtimes, so
the fault report matches too.

Run: ``PYTHONPATH=src python examples/multiprocess_cohort.py``
"""
from dataclasses import replace

from repro.scenarios import ScenarioContext, cohort_scenario, get_scenario, run_scenario


def run_both(spec, context):
    inproc = run_scenario(spec, context=context)
    multi = run_scenario(
        replace(spec, runtime="multiprocess", runtime_workers=2), context=context
    )
    assert multi.model_digests == inproc.model_digests
    assert multi.client_accuracy == inproc.client_accuracy
    assert multi.chain_stats["heights"] == inproc.chain_stats["heights"]
    return inproc, multi


spec = cohort_scenario(4, seed=7).quick()
# The runs share datasets and backbones, and both multiprocess runs one
# fleet of two workers; leaving the block shuts the fleet down.
with ScenarioContext() as context:
    inproc, multi = run_both(spec, context)

    wire = multi.chain_stats["gateway"]["wire"]
    print(f"cohort of {spec.cohort.size}, {spec.rounds} rounds, seed {spec.seed}")
    print(f"in-process   final acc: {inproc.mean_final_accuracy():.4f}")
    print(f"multiprocess final acc: {multi.mean_final_accuracy():.4f}  "
          f"({wire['workers']} workers)")
    print(f"model digests identical for all {len(multi.model_digests)} peers")
    print(f"wire: {wire['rpc_round_trips']} blob pulls, "
          f"{(wire['bytes_sent'] + wire['bytes_received']) / 1e6:.1f} MB")

    (lossy,) = get_scenario("faults/lossy").build(quick=True)
    inproc, multi = run_both(lossy, context)
    faults = multi.chain_stats["faults"]
    assert faults == inproc.chain_stats["faults"]
    print(f"{lossy.name}: {faults['injected']} injected faults, "
          f"{faults['completed_rounds']}/{lossy.rounds} rounds — identical under 2 workers")
