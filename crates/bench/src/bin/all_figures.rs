//! Regenerates every figure of the evaluation section in sequence.
//! `PPC_SCALE=0.1` makes a quick pass; `--quick` additionally caps the
//! machine-size sweep at 4 processors and runs the traffic tables at 4
//! (the configuration the CI `figures` job diffs against
//! `tests/golden/all_figures_quick.txt` — see docs/HARNESS.md).

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (procs, traffic_at): (&[usize], usize) =
        if quick { (&[1, 2, 4], 4) } else { (&ppc_bench::PROC_SWEEP, ppc_bench::TRAFFIC_PROCS) };
    ppc_bench::latency_table_over(
        "Figure 8: spin-lock acquire-release latency (cycles)",
        &ppc_bench::lock_rows(),
        procs,
    );
    ppc_bench::miss_table_at(
        &format!("Figure 9: spin-lock miss traffic at {traffic_at} processors"),
        &ppc_bench::lock_rows(),
        traffic_at,
    );
    ppc_bench::update_table_at(
        &format!("Figure 10: spin-lock update traffic at {traffic_at} processors"),
        &ppc_bench::lock_update_rows(),
        traffic_at,
    );
    ppc_bench::latency_table_over(
        "Figure 11: barrier episode latency (cycles)",
        &ppc_bench::barrier_rows(),
        procs,
    );
    ppc_bench::miss_table_at(
        &format!("Figure 12: barrier miss traffic at {traffic_at} processors"),
        &ppc_bench::barrier_rows(),
        traffic_at,
    );
    ppc_bench::update_table_at(
        &format!("Figure 13: barrier update traffic at {traffic_at} processors"),
        &ppc_bench::barrier_update_rows(),
        traffic_at,
    );
    ppc_bench::latency_table_over(
        "Figure 14: reduction latency (cycles)",
        &ppc_bench::reduction_rows(),
        procs,
    );
    ppc_bench::miss_table_at(
        &format!("Figure 15: reduction miss traffic at {traffic_at} processors"),
        &ppc_bench::reduction_rows(),
        traffic_at,
    );
    ppc_bench::update_table_at(
        &format!("Figure 16: reduction update traffic at {traffic_at} processors"),
        &ppc_bench::reduction_update_rows(),
        traffic_at,
    );
}
