//! Robustness properties of the front end: no input may panic the lexer,
//! parser, or checker; valid programs survive arbitrary whitespace and
//! comment injection.

use clap_ir::{lexer, parse, parse_module};
use clap_vm::Rng;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// `min..=max` chars drawn uniformly from the ASCII `alphabet`.
fn word(rng: &mut Rng, alphabet: &str, min: usize, max: usize) -> String {
    let alphabet = alphabet.as_bytes();
    (0..min + rng.below(max - min + 1))
        .map(|_| char::from(alphabet[rng.below(alphabet.len())]))
        .collect()
}

/// A printable ASCII char.
fn printable(rng: &mut Rng) -> char {
    char::from(b' ' + rng.below(95) as u8)
}

/// Up to 16 chars: nine in ten printable ASCII, the rest any Unicode
/// scalar value.
fn text(rng: &mut Rng) -> String {
    (0..rng.below(17))
        .map(|_| {
            if rng.below(10) < 9 {
                printable(rng)
            } else {
                char::from_u32((rng.next_u64() % 0x11_0000) as u32)
                    .unwrap_or(char::REPLACEMENT_CHARACTER)
            }
        })
        .collect()
}

/// The lexer returns `Ok` or `Err` — never panics — on arbitrary text.
#[test]
fn lexer_never_panics() {
    let mut rng = Rng::for_test("fuzz::lexer_never_panics");
    for _ in 0..32 {
        let _ = lexer::lex(&text(&mut rng));
    }
}

/// The whole front end never panics on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = Rng::for_test("fuzz::parser_never_panics");
    for _ in 0..32 {
        let _ = parse(&text(&mut rng));
    }
}

/// Token-shaped garbage (keywords, identifiers, punctuation strung
/// together) also never panics and errors out cleanly.
#[test]
fn parser_survives_token_soup() {
    const TOKENS: [&str; 14] = [
        "fn", "while", "if", "let", "global", "int", "(", ")", "{", "}", ";", "=", "==", "+",
    ];
    let mut rng = Rng::for_test("fuzz::parser_survives_token_soup");
    for _ in 0..32 {
        let tokens: Vec<String> = (0..rng.below(40))
            .map(|_| match rng.below(16) {
                i @ 0..14 => TOKENS[i].to_owned(),
                14 => word(&mut rng, LOWER, 1, 4),
                _ => word(&mut rng, "0123456789", 1, 6),
            })
            .collect();
        let _ = parse(&tokens.join(" "));
    }
}

/// A known-good program still parses after injecting comments and
/// whitespace between every token boundary that allows them.
#[test]
fn whitespace_and_comments_are_insignificant() {
    let mut rng = Rng::for_test("fuzz::whitespace_and_comments_are_insignificant");
    for _ in 0..32 {
        let pad = word(&mut rng, " \t\n", 0, 3);
        let base =
            format!("global int x = 0;{pad}// comment\nfn main(){pad}{{ x = 1;{pad}/* block */ }}");
        let module = parse_module(&base).expect("padded program parses");
        assert_eq!(module.functions.len(), 1, "{base:?}");
    }
}

/// Deterministic regression corpus for inputs that once looked risky.
#[test]
fn regression_corpus() {
    let corpus = [
        "",
        ";",
        "fn",
        "fn main",
        "fn main() {",
        "fn main() { let x: int = ; }",
        "global int a[0];",
        "global int a[-3];",
        "fn main() { assert(); }",
        "fn main() { join; }",
        "fn main() { x[[1]] = 2; }",
        "fn main() { let t: thread = fork; }",
        "/* unterminated",
        "\"unterminated",
        "fn main() { let x: int = 1 + ; }",
        "fn main() { while () {} }",
        "fn f(x: int, x: int) {} fn main() {}",
        "fn main() { 0x; }",
        "fn main() { let x: int = 99999999999999999999999999; }",
    ];
    for source in corpus {
        assert!(parse(source).is_err(), "must reject: {source:?}");
    }
}

/// A larger well-formed program exercising every construct parses and
/// lowers.
#[test]
fn kitchen_sink_parses() {
    let program = parse(
        r#"
        global int scal = -7;
        global int arr[16];
        mutex m1;
        mutex m2;
        cond c1;

        fn helper(a: int, b: bool) {
            if (b) { return a * 2; } else { return a; }
        }

        fn worker(id: int) {
            let i: int = 0;
            while (i < 4) {
                lock(m1);
                arr[(id + i) & 15] = helper(i, i % 2 == 0);
                signal(c1);
                unlock(m1);
                yield;
                i = i + 1;
            }
        }

        fn main() {
            let t1: thread = fork worker(1);
            let t2: thread = fork worker(2);
            lock(m2);
            scal = scal + 1;
            unlock(m2);
            join t1;
            join t2;
            let total: int = 0;
            let j: int = 0;
            while (j < 16) {
                total = total + arr[j];
                j = j + 1;
            }
            assert(total >= 0 || scal != -6, "sink");
        }
        "#,
    )
    .expect("kitchen sink parses");
    assert_eq!(program.functions.len(), 3);
    assert!(program.instr_count() > 30);
}

mod ast_round_trip {
    //! Random-AST round trip: any grammatically well-formed module must
    //! survive `unparse` → `parse_module` unchanged (spans erased).
    //! Semantic validity is NOT required — the grammar alone is pinned.

    use super::{printable, word, LOWER};
    use clap_ir::ast::*;
    use clap_ir::error::Span;
    use clap_ir::unparse::{modules_equal_modulo_spans, unparse};
    use clap_vm::Rng;

    const UNOPS: [UnOp; 2] = [UnOp::Neg, UnOp::Not];
    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
    ];
    const ORDS: [AtomicOrd; 4] = [
        AtomicOrd::Relaxed,
        AtomicOrd::Acquire,
        AtomicOrd::Release,
        AtomicOrd::SeqCst,
    ];

    /// An identifier that cannot collide with a keyword: it ends in `x`.
    fn name(rng: &mut Rng) -> String {
        let mut n = word(rng, LOWER, 1, 1);
        n += &word(rng, "abcdefghijklmnopqrstuvwxyz0123456789", 0, 3);
        n.push('x');
        n
    }

    /// `Some(f(rng))` half the time.
    fn maybe<T>(rng: &mut Rng, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        (rng.below(2) == 1).then(|| f(rng))
    }

    /// Fewer than `max` draws of `f`.
    fn list<T>(rng: &mut Rng, max: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..rng.below(max)).map(|_| f(rng)).collect()
    }

    fn int(rng: &mut Rng) -> i64 {
        rng.below(200) as i64 - 100
    }

    fn ty(rng: &mut Rng) -> Type {
        [Type::Int, Type::Bool][rng.below(2)]
    }

    fn ord(rng: &mut Rng) -> AtomicOrd {
        ORDS[rng.below(ORDS.len())]
    }

    /// An expression at most `depth` operators deep; a leaf one time in
    /// four above depth 0.
    fn expr(rng: &mut Rng, depth: u32) -> Expr {
        let span = Span::unknown();
        let kind = if depth == 0 { 0 } else { rng.below(4) };
        let sub = |rng: &mut Rng| Box::new(expr(rng, depth - 1));
        match kind {
            0 => match rng.below(3) {
                0 => Expr::Int(rng.next_u64() as i64, span),
                1 => Expr::Bool(rng.below(2) == 1, span),
                _ => Expr::Var(name(rng), span),
            },
            1 => Expr::Index(name(rng), sub(rng), span),
            2 => Expr::Unary(UNOPS[rng.below(2)], sub(rng), span),
            _ => Expr::Binary(BINOPS[rng.below(BINOPS.len())], sub(rng), sub(rng), span),
        }
    }

    fn args(rng: &mut Rng) -> Vec<Expr> {
        list(rng, 3, |rng| expr(rng, 1))
    }

    /// A statement at most `depth` blocks deep; an `if` or a `while` one
    /// time in three above depth 0.
    fn stmt(rng: &mut Rng, depth: u32) -> Stmt {
        let span = Span::unknown();
        let e = |rng: &mut Rng| expr(rng, 2);
        if depth > 0 {
            let body = |rng: &mut Rng| list(rng, 3, |rng| stmt(rng, depth - 1));
            match rng.below(3) {
                0 => {}
                1 => {
                    return Stmt::If {
                        cond: e(rng),
                        then_body: body(rng),
                        else_body: body(rng),
                        span,
                    }
                }
                _ => {
                    return Stmt::While {
                        cond: e(rng),
                        body: body(rng),
                        span,
                    }
                }
            }
        }
        let let_int = |name, init| Stmt::Let {
            name,
            ty: Type::Int,
            init,
            span,
        };
        let let_thread = |name, init| Stmt::Let {
            name,
            ty: Type::Thread,
            init,
            span,
        };
        match rng.below(26) {
            0 => Stmt::Let {
                name: name(rng),
                ty: ty(rng),
                init: LetInit::Expr(e(rng)),
                span,
            },
            1 => Stmt::Assign {
                lhs: LValue::Var(name(rng)),
                rhs: e(rng),
                span,
            },
            2 => Stmt::Assign {
                lhs: LValue::Index(name(rng), e(rng)),
                rhs: e(rng),
                span,
            },
            3 => Stmt::Lock {
                mutex: name(rng),
                span,
            },
            4 => Stmt::Unlock {
                mutex: name(rng),
                span,
            },
            5 => Stmt::Join {
                handle: e(rng),
                span,
            },
            6 => Stmt::Wait {
                cond: name(rng),
                mutex: name(rng),
                span,
            },
            7 => Stmt::Signal {
                cond: name(rng),
                span,
            },
            8 => Stmt::Broadcast {
                cond: name(rng),
                span,
            },
            9 => Stmt::Yield { span },
            10 => Stmt::Assert {
                cond: e(rng),
                message: (0..rng.below(13)).map(|_| printable(rng)).collect(),
                span,
            },
            11 => Stmt::Return {
                value: maybe(rng, e),
                span,
            },
            12 => Stmt::Call {
                dst: maybe(rng, |rng| LValue::Var(name(rng))),
                func: name(rng),
                args: args(rng),
                span,
            },
            13 => let_thread(
                name(rng),
                LetInit::Fork {
                    func: name(rng),
                    args: args(rng),
                },
            ),
            14 => Stmt::Send {
                chan: name(rng),
                value: e(rng),
                span,
            },
            15 => Stmt::Close {
                chan: name(rng),
                span,
            },
            16 => Stmt::MailboxSend {
                target: e(rng),
                value: e(rng),
                span,
            },
            17 => let_int(name(rng), LetInit::Recv { chan: name(rng) }),
            18 => let_int(name(rng), LetInit::TryRecv { chan: name(rng) }),
            19 => let_int(
                name(rng),
                LetInit::TrySend {
                    chan: name(rng),
                    value: e(rng),
                },
            ),
            20 => let_thread(
                name(rng),
                LetInit::SpawnActor {
                    func: name(rng),
                    args: args(rng),
                },
            ),
            21 => let_int(name(rng), LetInit::MailboxRecv),
            22 => Stmt::AtomicStore {
                atomic: name(rng),
                value: e(rng),
                ord: ord(rng),
                span,
            },
            23 => let_int(
                name(rng),
                LetInit::AtomicLoad {
                    atomic: name(rng),
                    ord: ord(rng),
                },
            ),
            24 => let_int(
                name(rng),
                LetInit::FetchAdd {
                    atomic: name(rng),
                    value: e(rng),
                    ord: ord(rng),
                },
            ),
            _ => let_int(
                name(rng),
                LetInit::Cas {
                    atomic: name(rng),
                    expected: e(rng),
                    desired: e(rng),
                    ord: ord(rng),
                },
            ),
        }
    }

    fn module(rng: &mut Rng) -> Module {
        let span = Span::unknown();
        let decl = |rng: &mut Rng| NamedDecl {
            name: name(rng),
            span,
        };
        Module {
            globals: list(rng, 3, |rng| {
                let name = name(rng);
                let len = maybe(rng, |rng| 1 + rng.below(8));
                let init = if len.is_some() { 0 } else { int(rng) };
                GlobalAst {
                    name,
                    len,
                    init,
                    span,
                }
            }),
            mutexes: list(rng, 2, decl),
            conds: list(rng, 2, decl),
            chans: list(rng, 2, |rng| ChanAst {
                name: name(rng),
                cap: rng.below(4),
                span,
            }),
            atomics: list(rng, 2, |rng| AtomicAst {
                name: name(rng),
                init: int(rng),
                span,
            }),
            functions: (0..1 + rng.below(2))
                .map(|_| FunctionAst {
                    name: name(rng),
                    params: list(rng, 3, |rng| (name(rng), ty(rng))),
                    body: list(rng, 4, |rng| stmt(rng, 2)),
                    span,
                })
                .collect(),
        }
    }

    #[test]
    fn unparse_parse_round_trip() {
        let mut rng = Rng::for_test("fuzz::ast_round_trip::unparse_parse_round_trip");
        for _ in 0..64 {
            let m = module(&mut rng);
            let text = unparse(&m);
            let back = clap_ir::parse_module(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
            assert!(
                modules_equal_modulo_spans(&m, &back),
                "AST changed:\n{text}"
            );
        }
    }
}
