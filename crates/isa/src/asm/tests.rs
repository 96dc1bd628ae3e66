use super::*;
use crate::op::Opcode;
use crate::program::{DATA_BASE, TEXT_BASE};
use crate::reg::{FpReg, IntReg};

fn ok(src: &str) -> Program {
    assemble(src).expect("assembly should succeed")
}

fn err(src: &str) -> AsmError {
    assemble(src).expect_err("assembly should fail")
}

#[test]
fn empty_source_builds_empty_program() {
    let p = ok("");
    assert!(p.text().is_empty());
    assert!(p.data().is_empty());
}

#[test]
fn labels_resolve_in_both_segments() {
    let p = ok(r#"
        .data
    x:  .word 7
    y:  .word 8
        .text
    main:
        la t0, x
        ld a0, 0(t0)
        halt
    "#);
    assert_eq!(p.symbol("x"), Some(DATA_BASE));
    assert_eq!(p.symbol("y"), Some(DATA_BASE + 8));
    assert_eq!(p.symbol("main"), Some(TEXT_BASE));
    assert_eq!(p.entry(), TEXT_BASE);
    assert_eq!(&p.data()[..8], &7u64.to_le_bytes());
}

#[test]
fn forward_references_work() {
    let p = ok(r#"
        .text
        j end
        nop
    end:
        halt
    "#);
    // `j end` at TEXT_BASE must skip 2 instructions = +16 bytes.
    assert_eq!(p.text()[0].op, Opcode::J);
    assert_eq!(p.text()[0].imm, 16);
}

#[test]
fn branch_offsets_are_pc_relative() {
    let p = ok(r#"
    loop:
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    "#);
    let bne = p.text()[1];
    assert_eq!(bne.op, Opcode::Bne);
    assert_eq!(bne.imm, -8);
}

#[test]
fn pseudo_instructions_expand() {
    let p = ok(r#"
        mv a0, a1
        neg a2, a3
        not a4, a5
        ret
        fmv.d f1, f2
    "#);
    assert_eq!(p.text()[0].op, Opcode::Addi);
    assert_eq!(p.text()[1].op, Opcode::Sub);
    assert_eq!(p.text()[1].rs1, 0);
    assert_eq!(p.text()[2].op, Opcode::Nor);
    assert_eq!(p.text()[3].op, Opcode::Jr);
    assert_eq!(p.text()[3].rs1, IntReg::RA.index() as u8);
    assert_eq!(p.text()[4].op, Opcode::FmovD);
}

#[test]
fn conditional_pseudo_branches_swap_operands() {
    let p = ok(r#"
    t:  ble a0, a1, t
        bgt a2, a3, t
        beqz a4, t
        bgtz a5, t
    "#);
    // ble a, b -> bge b, a
    assert_eq!(p.text()[0].op, Opcode::Bge);
    assert_eq!(p.text()[0].rs1, 11);
    assert_eq!(p.text()[0].rs2, 10);
    // bgt a, b -> blt b, a
    assert_eq!(p.text()[1].op, Opcode::Blt);
    assert_eq!(p.text()[1].rs1, 13);
    assert_eq!(p.text()[1].rs2, 12);
    assert_eq!(p.text()[2].op, Opcode::Beq);
    assert_eq!(p.text()[2].rs2, 0);
    // bgtz r -> blt zero, r
    assert_eq!(p.text()[3].op, Opcode::Blt);
    assert_eq!(p.text()[3].rs1, 0);
    assert_eq!(p.text()[3].rs2, 15);
}

#[test]
fn call_links_ra() {
    let p = ok(r#"
    main:
        call f
        halt
    f:  ret
    "#);
    let call = p.text()[0];
    assert_eq!(call.op, Opcode::Jal);
    assert_eq!(call.rd, IntReg::RA.index() as u8);
    assert_eq!(call.imm, 16);
}

#[test]
fn memory_operand_forms() {
    let p = ok(r#"
        lw a0, 8(sp)
        lw a1, (sp)
        sd a2, -16(s0)
        fld f0, 0(a3)
        fsd f1, 24(a4)
    "#);
    assert_eq!(p.text()[0].imm, 8);
    assert_eq!(p.text()[1].imm, 0);
    assert_eq!(p.text()[2].imm, -16);
    assert_eq!(p.text()[3].op, Opcode::Fld);
    assert_eq!(p.text()[4].op, Opcode::Fsd);
    assert_eq!(p.text()[4].rs2, 1);
}

#[test]
fn data_directives_lay_out_bytes() {
    let p = ok(r#"
        .data
    a:  .byte 1, 2, 0xff
        .align 8
    b:  .word -1
    c:  .double 1.5
    s:  .asciiz "hi\n"
        .space 4
    "#);
    assert_eq!(p.symbol("a"), Some(DATA_BASE));
    assert_eq!(p.symbol("b"), Some(DATA_BASE + 8));
    assert_eq!(p.symbol("c"), Some(DATA_BASE + 16));
    assert_eq!(p.symbol("s"), Some(DATA_BASE + 24));
    assert_eq!(p.data().len(), 32);
    assert_eq!(p.data()[2], 0xff);
    assert_eq!(&p.data()[8..16], &(-1i64).to_le_bytes());
    assert_eq!(&p.data()[16..24], &1.5f64.to_bits().to_le_bytes());
    assert_eq!(&p.data()[24..28], b"hi\n\0");
}

#[test]
fn word_directive_accepts_labels() {
    let p = ok(r#"
        .data
    ptr: .word target
    target: .word 99
    "#);
    assert_eq!(
        &p.data()[..8],
        &(DATA_BASE + 8).to_le_bytes(),
        "pointer should hold target's address"
    );
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let p = ok(r#"
        # full line comment
        li a0, 1   # trailing comment
        ; semicolon comment
        halt
    "#);
    assert_eq!(p.text().len(), 2);
}

#[test]
fn hex_and_char_immediates() {
    let p = ok(r#"
        li a0, 0x10
        li a1, -0x10
        li a2, 'A'
    "#);
    assert_eq!(p.text()[0].imm, 16);
    assert_eq!(p.text()[1].imm, -16);
    assert_eq!(p.text()[2].imm, 65);
}

#[test]
fn duplicate_label_is_an_error() {
    let e = err("x: nop\nx: nop\n");
    assert!(e.message().contains("duplicate"));
    assert_eq!(e.line(), 2);
}

#[test]
fn unknown_mnemonic_is_an_error() {
    let e = err("frobnicate a0, a1\n");
    assert!(e.message().contains("unknown mnemonic"));
}

#[test]
fn unknown_target_is_an_error() {
    let e = err("j nowhere\n");
    assert!(e.message().contains("unknown target"));
}

#[test]
fn wrong_register_file_is_an_error() {
    let e = err("add a0, f1, a2\n");
    assert!(e.message().contains("not an integer register"));
    let e = err("fadd.d f0, a1, f2\n");
    assert!(e.message().contains("not an fp register"));
}

#[test]
fn extra_operand_is_an_error() {
    let e = err("nop a0\n");
    assert!(e.message().contains("unexpected extra operand"));
}

#[test]
fn missing_operand_is_an_error() {
    let e = err("add a0, a1\n");
    assert!(e.message().contains("missing"));
}

#[test]
fn instruction_in_data_segment_is_an_error() {
    let e = err(".data\nadd a0, a1, a2\n");
    assert!(e.message().contains("outside the .text"));
}

#[test]
fn multiple_labels_on_one_address() {
    let p = ok("a: b: c: halt\n");
    assert_eq!(p.symbol("a"), p.symbol("b"));
    assert_eq!(p.symbol("b"), p.symbol("c"));
}

#[test]
fn jal_with_implied_link_register() {
    let p = ok("main: jal main\n");
    assert_eq!(p.text()[0].rd, IntReg::RA.index() as u8);
    assert_eq!(p.text()[0].imm, 0);
}

#[test]
fn entry_defaults_to_main_when_not_first() {
    let p = ok(r#"
    helper:
        ret
    main:
        halt
    "#);
    assert_eq!(p.entry(), p.symbol("main").unwrap());
    assert_ne!(p.entry(), TEXT_BASE);
}

#[test]
fn fp_register_operands_parse() {
    let p = ok(r#"
        fadd.d f1, f2, f3
        fsqrt.d f4, f5
        feq.d a0, f1, f2
        fcvt.d.l f0, a1
        fcvt.l.d a2, f0
        putf f1
    "#);
    assert_eq!(p.text()[0].op, Opcode::FaddD);
    assert_eq!(p.text()[2].int_dest(), Some(IntReg::new(10)));
    assert_eq!(p.text()[3].fp_dest(), Some(FpReg::new(0)));
    assert_eq!(p.text()[4].int_dest(), Some(IntReg::new(12)));
    assert_eq!(p.text()[5].op, Opcode::Putf);
}

#[test]
fn align_requires_power_of_two() {
    let e = err(".data\n.align 3\n");
    assert!(e.message().contains("power of two"));
}

#[test]
fn asciiz_with_hash_inside_string() {
    let p = ok(".data\ns: .asciiz \"a#b\"\n");
    assert_eq!(&p.data()[..4], b"a#b\0");
}

#[test]
fn data_segment_past_the_cap_is_refused_before_allocation() {
    // Regression: each of these used to abort the process (a failed
    // allocation or a capacity overflow) in pass 2.
    for src in [
        ".data\nx: .space 4000000000000\n",
        ".data\nx: .space 18446744073709551615\n",
        ".data\nx: .space 9223372036854775807\ny: .space 9223372036854775807\n",
        ".data\nx: .byte 1\n.align 9223372036854775808\n",
    ] {
        let e = err(src);
        assert!(e.message().contains("cap"), "{src:?}: {e}");
    }
    let at_cap = format!(".data\nx: .space {MAX_DATA_BYTES}\n");
    assert_eq!(ok(&at_cap).data().len() as u64, MAX_DATA_BYTES);
    let e = err(&format!(".data\nx: .space {MAX_DATA_BYTES}\n.byte 1\n"));
    assert_eq!(e.line(), 3);
}
