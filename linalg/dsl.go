package linalg

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// lilLinAlg's Matlab-like DSL (paper §8.3.1):
//
//	X = load(myMatrix.data);
//	y = load(myResponses.data);
//	beta = (X '* X)^-1 %*% (X '* y)
//
// '* is transpose-then-multiply, ^-1 is inverse, %*% is multiply; + − and
// scalar * behave as expected. Scripts are parsed into an AST and evaluated
// against an Engine, with each matrix operation compiling to a PC
// computation graph.

// Node is a DSL AST node.
type Node interface{ String() string }

// NumNode is a numeric literal.
type NumNode float64

// String renders the node as DSL source.
func (n NumNode) String() string { return strconv.FormatFloat(float64(n), 'g', -1, 64) }

// VarNode references a bound name.
type VarNode string

// String renders the node as DSL source.
func (v VarNode) String() string { return string(v) }

// AssignNode binds a name.
type AssignNode struct {
	Name string
	Expr Node
}

// String renders the node as DSL source.
func (a *AssignNode) String() string { return a.Name + " = " + a.Expr.String() }

// BinNode applies a binary operator: "+", "-", "*", "%*%".
type BinNode struct {
	Op   string
	L, R Node
}

// String renders the node as DSL source.
func (b *BinNode) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// UnaryNode applies a postfix operator: "'" (transpose) or "^-1" (inverse).
type UnaryNode struct {
	Op string
	X  Node
}

// String renders the node as DSL source.
func (u *UnaryNode) String() string { return u.X.String() + u.Op }

// CallNode is a built-in function call.
type CallNode struct {
	Fn   string
	Args []Node
}

// String renders the node as DSL source.
func (c *CallNode) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// Program is a sequence of statements.
type Program struct {
	Stmts []Node
}

type dslToken struct {
	kind string // num, ident, op
	val  string
	pos  int
}

func lexDSL(src string) ([]dslToken, error) {
	var toks []dslToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '\n' || c == ';':
			toks = append(toks, dslToken{"op", ";", i})
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "%*%"):
			toks = append(toks, dslToken{"op", "%*%", i})
			i += 3
		case strings.HasPrefix(src[i:], "^-1"):
			toks = append(toks, dslToken{"op", "^-1", i})
			i += 3
		case strings.ContainsRune("+-*'()=,", rune(c)):
			toks = append(toks, dslToken{"op", string(c), i})
			i++
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.' || src[j] == 'e' ||
				(src[j] == '-' && j > i && (src[j-1] == 'e'))) {
				j++
			}
			toks = append(toks, dslToken{"num", src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) ||
				src[j] == '_' || src[j] == '.') {
				j++
			}
			toks = append(toks, dslToken{"ident", src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("linalg: unexpected character %q at %d", c, i)
		}
	}
	return toks, nil
}

type dslParser struct {
	toks []dslToken
	i    int
}

func (p *dslParser) peek() dslToken {
	if p.i >= len(p.toks) {
		return dslToken{kind: "eof"}
	}
	return p.toks[p.i]
}

func (p *dslParser) next() dslToken {
	t := p.peek()
	p.i++
	return t
}

func (p *dslParser) accept(kind, val string) bool {
	t := p.peek()
	if t.kind == kind && (val == "" || t.val == val) {
		p.i++
		return true
	}
	return false
}

// ParseScript parses a full DSL script.
func ParseScript(src string) (*Program, error) {
	toks, err := lexDSL(src)
	if err != nil {
		return nil, err
	}
	p := &dslParser{toks: toks}
	prog := &Program{}
	for p.peek().kind != "eof" {
		if p.accept("op", ";") {
			continue
		}
		stmt, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("linalg: empty script")
	}
	return prog, nil
}

func (p *dslParser) stmt() (Node, error) {
	// IDENT '=' expr  |  expr
	if p.peek().kind == "ident" && p.i+1 < len(p.toks) &&
		p.toks[p.i+1].kind == "op" && p.toks[p.i+1].val == "=" {
		name := p.next().val
		p.next() // '='
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignNode{Name: name, Expr: e}, nil
	}
	return p.expr()
}

func (p *dslParser) expr() (Node, error) { return p.addExpr() }

func (p *dslParser) addExpr() (Node, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "op" && (t.val == "+" || t.val == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinNode{Op: t.val, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *dslParser) mulExpr() (Node, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "op" && (t.val == "*" || t.val == "%*%") {
			p.next()
			r, err := p.postfix()
			if err != nil {
				return nil, err
			}
			l = &BinNode{Op: t.val, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *dslParser) postfix() (Node, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "op" && t.val == "'" {
			p.next()
			x = &UnaryNode{Op: "'", X: x}
			continue
		}
		if t.kind == "op" && t.val == "^-1" {
			p.next()
			x = &UnaryNode{Op: "^-1", X: x}
			continue
		}
		return x, nil
	}
}

func (p *dslParser) atom() (Node, error) {
	t := p.next()
	switch {
	case t.kind == "num":
		f, err := strconv.ParseFloat(t.val, 64)
		if err != nil {
			return nil, fmt.Errorf("linalg: bad number %q at %d", t.val, t.pos)
		}
		return NumNode(f), nil
	case t.kind == "ident":
		if p.accept("op", "(") {
			call := &CallNode{Fn: t.val}
			for p.peek().val != ")" {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept("op", ",") {
					break
				}
			}
			if !p.accept("op", ")") {
				return nil, fmt.Errorf("linalg: missing ) in call to %s at %d", t.val, t.pos)
			}
			return call, nil
		}
		return VarNode(t.val), nil
	case t.kind == "op" && t.val == "(":
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.accept("op", ")") {
			return nil, fmt.Errorf("linalg: missing ) at %d", t.pos)
		}
		return e, nil
	default:
		return nil, fmt.Errorf("linalg: unexpected token %q at %d", t.val, t.pos)
	}
}
