package minilua

// Statements.

type stmt interface{ stmtNode() }

type localStmt struct {
	line  int
	names []string
	exprs []expr
}

type assignStmt struct {
	line    int
	targets []expr // nameExpr or indexExpr
	exprs   []expr
}

type ifStmt struct {
	line   int
	conds  []expr
	blocks [][]stmt
	els    []stmt
}

type numForStmt struct {
	line                  int
	varName               string
	startE, limitE, stepE expr // stepE may be nil
	body                  []stmt
}

type funcStmt struct {
	line   int
	name   string
	params []string
	body   []stmt
}

type returnStmt struct {
	line int
	e    expr // may be nil
}

type exprStmt struct {
	line int
	e    expr
}

func (*localStmt) stmtNode()  {}
func (*assignStmt) stmtNode() {}
func (*ifStmt) stmtNode()     {}
func (*numForStmt) stmtNode() {}
func (*funcStmt) stmtNode()   {}
func (*returnStmt) stmtNode() {}
func (*exprStmt) stmtNode()   {}

// Expressions.

type expr interface{ exprNode() }

type nilExpr struct{}
type boolExpr struct{ v bool }
type numberExpr struct{ v float64 }
type stringExpr struct{ v string }
type nameExpr struct {
	line int
	name string
}
type binExpr struct {
	line int
	op   string
	l, r expr
}
type unExpr struct {
	line int
	op   string
	e    expr
}
type callExpr struct {
	line int
	fn   expr
	args []expr
}
type indexExpr struct {
	line int
	obj  expr
	key  expr
}
type tableExpr struct {
	line int
	// array part values, then keyed part
	arr  []expr
	keys []expr
	vals []expr
}

func (*nilExpr) exprNode()    {}
func (*boolExpr) exprNode()   {}
func (*numberExpr) exprNode() {}
func (*stringExpr) exprNode() {}
func (*nameExpr) exprNode()   {}
func (*binExpr) exprNode()    {}
func (*unExpr) exprNode()     {}
func (*callExpr) exprNode()   {}
func (*indexExpr) exprNode()  {}
func (*tableExpr) exprNode()  {}
