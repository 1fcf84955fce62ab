//! Plain-text renderers for the experiment rows (`paper` prints these and
//! also dumps JSON next to them).

use crate::experiments::*;

/// Render Figure 1 as an aligned text table.
pub fn figure1_text(rows: &[Fig1Row]) -> String {
    let mut s = String::from(
        "Figure 1 — OpenACC default memory management, normalized to fully optimized\n\
         benchmark    time_ratio    bytes_ratio    naive_us        opt_us\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>10.1}x {:>12.1}x {:>12.1} {:>12.1}\n",
            r.name, r.time_ratio, r.bytes_ratio, r.naive_us, r.opt_us
        ));
    }
    s
}

/// Render Table 2.
pub fn table2_text(t: &Table2) -> String {
    let mut s = String::from(
        "Table 2 — kernel verification under private/reduction fault injection\n\
         benchmark    kernels  private  reduction  active(detected)  latent(undetected)\n",
    );
    for r in &t.rows {
        s.push_str(&format!(
            "{:<12} {:>7} {:>8} {:>10} {:>17} {:>19}\n",
            r.name, r.kernels, r.with_private, r.with_reduction, r.active_detected, r.latent
        ));
    }
    s.push_str(&format!(
        "\nTotals: kernels tested = {}, with private data = {}, with reduction = {},\n        active errors = {} (all detected; {} missed), latent errors = {} (none detected by verification)\n",
        t.kernels_tested,
        t.kernels_with_private,
        t.kernels_with_reduction,
        t.active_errors,
        t.active_missed,
        t.latent_errors
    ));
    s
}

/// Render Figure 3.
pub fn figure3_text(rows: &[Fig3Row]) -> String {
    let mut s = String::from(
        "Figure 3 — kernel-verification time breakdown (normalized to sequential CPU)\n",
    );
    if let Some(first) = rows.first() {
        s.push_str(&format!("{:<12}", "benchmark"));
        for (label, _) in &first.categories {
            s.push_str(&format!("{:>14}", label));
        }
        s.push_str(&format!("{:>10}\n", "total"));
    }
    for r in rows {
        s.push_str(&format!("{:<12}", r.name));
        for (_, v) in &r.categories {
            s.push_str(&format!("{:>14.2}", v));
        }
        s.push_str(&format!("{:>10.2}\n", r.total));
    }
    s
}

/// Render Table 3.
pub fn table3_text(rows: &[Table3Row]) -> String {
    let mut s = String::from(
        "Table 3 — interactive memory-transfer optimization\n\
         benchmark    total_iterations  incorrect_iterations  uncaught_redundancy  converged\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>16} {:>21} {:>20} {:>10}\n",
            r.name, r.total_iterations, r.incorrect_iterations, r.uncaught_redundancy, r.converged
        ));
    }
    s
}

/// Render Figure 4.
pub fn figure4_text(rows: &[Fig4Row]) -> String {
    let mut s = String::from(
        "Figure 4 — memory-transfer-verification overhead\n\
         benchmark    overhead_%     plain_us    instrumented_us\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>9.2}% {:>12.1} {:>16.1}\n",
            r.name, r.overhead_pct, r.plain_us, r.instrumented_us
        ));
    }
    s
}
