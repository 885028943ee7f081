package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is an AST node that can evaluate itself against an environment.
type Node interface {
	eval(env *Env) (any, error)
	// String renders the node back to source-equivalent form.
	String() string
}

type litNode struct{ val any }

type listNode struct {
	elems []Node
	pos   int
}

func (n *listNode) String() string {
	s := "["
	for i, e := range n.elems {
		if i > 0 {
			s += ", "
		}
		s += e.String()
	}
	return s + "]"
}

// litEscaper writes a string literal with only the escapes lexString
// reads back; every other byte, invalid UTF-8 included, stands for itself.
var litEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

func (n *litNode) String() string {
	switch v := n.val.(type) {
	case string:
		return `"` + litEscaper.Replace(v) + `"`
	case float64:
		// The lexer reads no exponent, so never print one.
		return strconv.FormatFloat(v, 'f', -1, 64)
	case nil:
		return "null"
	}
	return fmt.Sprintf("%v", n.val)
}

type identNode struct {
	name string
	pos  int
}

func (n *identNode) String() string { return n.name }

type memberNode struct {
	obj   Node
	field string
	pos   int
}

func (n *memberNode) String() string { return postfixOperand(n.obj) + "." + n.field }

// postfixOperand prints the object of a member access or index. A literal
// or a unary operation is parenthesised: "1.x" lexes as a malformed
// number, and "-a.b" negates a.b rather than taking b of -a.
func postfixOperand(n Node) string {
	switch n.(type) {
	case *litNode, *unaryNode:
		return "(" + n.String() + ")"
	}
	return n.String()
}

type indexNode struct {
	obj Node
	key Node
	pos int
}

func (n *indexNode) String() string { return postfixOperand(n.obj) + "[" + n.key.String() + "]" }

type callNode struct {
	fn   string
	args []Node
	pos  int
}

func (n *callNode) String() string {
	s := n.fn + "("
	for i, a := range n.args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

type unaryNode struct {
	op  kind
	x   Node
	pos int
}

func (n *unaryNode) String() string {
	op := "!"
	if n.op == tokMinus {
		op = "-"
	}
	return op + n.x.String()
}

type binaryNode struct {
	op   kind
	x, y Node
	pos  int
}

var opNames = map[kind]string{
	tokEq: "==", tokNe: "!=", tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
	tokAnd: "&&", tokOr: "||", tokPlus: "+", tokMinus: "-", tokStar: "*",
	tokSlash: "/", tokPercent: "%", tokIn: "in",
}

func (n *binaryNode) String() string {
	return "(" + n.x.String() + " " + opNames[n.op] + " " + n.y.String() + ")"
}

// binding powers for the Pratt parser, loosest first.
func bindingPower(k kind) int {
	switch k {
	case tokOr:
		return 1
	case tokAnd:
		return 2
	case tokEq, tokNe:
		return 3
	case tokLt, tokLe, tokGt, tokGe, tokIn:
		return 4
	case tokPlus, tokMinus:
		return 5
	case tokStar, tokSlash, tokPercent:
		return 6
	default:
		return 0
	}
}

// maxDepth bounds how deeply an expression nests. Parenthesised and
// bracketed subexpressions, operator chains, postfix chains and unary
// prefixes each deepen the tree that parsing, printing and evaluation walk
// recursively; rules in use nest a few levels. Without a bound, a few
// megabytes of "(" overflow the goroutine stack, a fatal error no recover
// catches.
const maxDepth = 1000

type parser struct {
	toks  []token
	i     int
	depth int
}

// deeper counts one more level of nesting at pos; the caller restores
// p.depth when it returns.
func (p *parser) deeper(pos int) error {
	p.depth++
	if p.depth > maxDepth {
		return &SyntaxError{pos, fmt.Sprintf("expression nests deeper than %d levels", maxDepth)}
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k kind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return token{}, &SyntaxError{t.pos, fmt.Sprintf("expected %s, found %s", what, t)}
	}
	return t, nil
}

// Parse compiles an expression to an evaluatable AST.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unexpected %s after expression", t)}
	}
	return n, nil
}

// MustParse is Parse that panics on error, for rule tables in tests.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (p *parser) parseExpr(minBP int) (Node, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.deeper(p.peek().pos); err != nil {
		return nil, err
	}
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		bp := bindingPower(op.kind)
		if bp == 0 || bp <= minBP {
			return lhs, nil
		}
		p.next()
		if err := p.deeper(op.pos); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr(bp)
		if err != nil {
			return nil, err
		}
		lhs = &binaryNode{op: op.kind, x: lhs, y: rhs, pos: op.pos}
	}
}

func (p *parser) parseUnary() (Node, error) {
	t := p.peek()
	if t.kind != tokNot && t.kind != tokMinus {
		return p.parsePostfix()
	}
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.deeper(t.pos); err != nil {
		return nil, err
	}
	p.next()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &unaryNode{op: t.kind, x: x, pos: t.pos}, nil
}

// parsePostfix parses a primary expression followed by any chain of member
// accesses and index operations.
func (p *parser) parsePostfix() (Node, error) {
	n, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	defer func(d int) { p.depth = d }(p.depth)
	for {
		t := p.peek()
		if t.kind == tokDot || t.kind == tokLBracket {
			if err := p.deeper(t.pos); err != nil {
				return nil, err
			}
		}
		switch t.kind {
		case tokDot:
			p.next()
			field, err := p.expect(tokIdent, "field name after '.'")
			if err != nil {
				return nil, err
			}
			n = &memberNode{obj: n, field: field.text, pos: t.pos}
		case tokLBracket:
			p.next()
			key, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket, "']'"); err != nil {
				return nil, err
			}
			n = &indexNode{obj: n, key: key, pos: t.pos}
		default:
			return n, nil
		}
	}
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return &litNode{val: t.num}, nil
	case tokString:
		return &litNode{val: t.text}, nil
	case tokBool:
		return &litNode{val: t.text == "true"}, nil
	case tokNull:
		return &litNode{val: nil}, nil
	case tokIdent:
		// Function call or plain identifier.
		if p.peek().kind == tokLParen {
			p.next()
			var args []Node
			if p.peek().kind != tokRParen {
				for {
					a, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind != tokComma {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return &callNode{fn: t.text, args: args, pos: t.pos}, nil
		}
		return &identNode{name: t.text, pos: t.pos}, nil
	case tokLParen:
		n, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return n, nil
	case tokLBracket:
		// List literal, e.g. ["UberX", "UberPool"].
		list := &listNode{pos: t.pos}
		if p.peek().kind != tokRBracket {
			for {
				e, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				list.elems = append(list.elems, e)
				if p.peek().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		return list, nil
	default:
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unexpected %s", t)}
	}
}
