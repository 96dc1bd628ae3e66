//! The §4 base-machine configuration table, printed from the live
//! `MachineConfig::paper_baseline()` so the docs can never drift from
//! the code. It runs no simulation, but takes the shared
//! `FIGURE_CLI` command line like every figure.

use redsim_bench::{Cli, Table, FIGURE_CLI};
use redsim_core::MachineConfig;

fn main() {
    let cli = Cli::parse(&FIGURE_CLI);
    let c = MachineConfig::paper_baseline();
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec![
        "fetch / decode / issue / commit width".to_owned(),
        format!(
            "{} / {} / {} / {}",
            c.fetch_width, c.decode_width, c.issue_width, c.commit_width
        ),
    ]);
    t.row(vec![
        "RUU (unified ROB+IW)".to_owned(),
        format!("{} entries", c.ruu_size),
    ]);
    t.row(vec!["LSQ".to_owned(), format!("{} entries", c.lsq_size)]);
    t.row(vec![
        "int ALU / int mul-div / fp add / fp mul-div-sqrt".to_owned(),
        format!(
            "{} / {} / {} / {}",
            c.fu.int_alu, c.fu.int_mul_div, c.fu.fp_add, c.fu.fp_mul_div_sqrt
        ),
    ]);
    t.row(vec![
        "latencies (alu/mul/div/fadd/fmul/fdiv/fsqrt)".to_owned(),
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            c.latency.int_alu,
            c.latency.int_mul,
            c.latency.int_div,
            c.latency.fp_add,
            c.latency.fp_mul,
            c.latency.fp_div,
            c.latency.fp_sqrt
        ),
    ]);
    t.row(vec![
        "L1I".to_owned(),
        format!(
            "{} KB {}-way {}B, {} cycle(s)",
            c.hierarchy.l1i.size_bytes / 1024,
            c.hierarchy.l1i.assoc,
            c.hierarchy.l1i.line_bytes,
            c.hierarchy.l1i.hit_latency
        ),
    ]);
    t.row(vec![
        "L1D".to_owned(),
        format!(
            "{} KB {}-way {}B, {} cycle(s), {} port(s)",
            c.hierarchy.l1d.size_bytes / 1024,
            c.hierarchy.l1d.assoc,
            c.hierarchy.l1d.line_bytes,
            c.hierarchy.l1d.hit_latency,
            c.dcache.ports
        ),
    ]);
    t.row(vec![
        "L2 (unified)".to_owned(),
        format!(
            "{} KB {}-way {}B, {} cycles",
            c.hierarchy.l2.size_bytes / 1024,
            c.hierarchy.l2.assoc,
            c.hierarchy.l2.line_bytes,
            c.hierarchy.l2.hit_latency
        ),
    ]);
    t.row(vec![
        "memory".to_owned(),
        format!("{} cycles", c.hierarchy.mem_latency),
    ]);
    t.row(vec![
        "branch predictor".to_owned(),
        format!("{:?}", c.direction),
    ]);
    t.row(vec![
        "BTB / RAS".to_owned(),
        format!(
            "{} sets x {} ways / {} deep",
            c.btb.sets, c.btb.assoc, c.ras_depth
        ),
    ]);
    t.row(vec![
        "mispredict / BTB-miss penalty".to_owned(),
        format!("{} / {} cycles", c.mispredict_penalty, c.btb_miss_penalty),
    ]);
    t.row(vec![
        "IRB".to_owned(),
        format!(
            "{} entries, {}-way, {}R/{}W/{}RW ports, {}-stage lookup, {:?} reuse",
            c.irb.entries,
            c.irb.assoc,
            c.irb.ports.read,
            c.irb.ports.write,
            c.irb.ports.read_write,
            c.irb.lookup_stages,
            c.irb.policy
        ),
    ]);

    if cli.json {
        let out = redsim_util::Json::obj()
            .field("title", "Base machine configuration (paper §4)")
            .field("table", t.to_json());
        println!("{out}");
    } else {
        println!("Base machine configuration (paper §4)\n");
        print!("{}", t.render());
    }
}
