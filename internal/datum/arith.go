package datum

import "fmt"

// Arithmetic over datums follows SQL semantics: any NULL operand yields
// NULL; INT op INT stays INT (except division by zero, which is an
// error); mixed INT/FLOAT promotes to FLOAT; + on STRINGs concatenates.

// Add returns a + b.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.typ == TInt && b.typ == TInt:
		return NewInt(a.asInt() + b.asInt()), nil
	case isNumeric(a) && isNumeric(b):
		return NewFloat(a.Float() + b.Float()), nil
	case a.typ == TString && b.typ == TString:
		return NewString(a.asStr() + b.asStr()), nil
	}
	return Null, typeErr("+", a, b)
}

// Sub returns a - b.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.typ == TInt && b.typ == TInt:
		return NewInt(a.asInt() - b.asInt()), nil
	case isNumeric(a) && isNumeric(b):
		return NewFloat(a.Float() - b.Float()), nil
	}
	return Null, typeErr("-", a, b)
}

// Mul returns a * b.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.typ == TInt && b.typ == TInt:
		return NewInt(a.asInt() * b.asInt()), nil
	case isNumeric(a) && isNumeric(b):
		return NewFloat(a.Float() * b.Float()), nil
	}
	return Null, typeErr("*", a, b)
}

// Div returns a / b. Integer division truncates; division by zero is an
// execution error rather than NULL, matching DB2 behaviour.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.typ == TInt && b.typ == TInt:
		if b.asInt() == 0 {
			return Null, fmt.Errorf("datum: division by zero")
		}
		return NewInt(a.asInt() / b.asInt()), nil
	case isNumeric(a) && isNumeric(b):
		bf := b.Float()
		if bf == 0 {
			return Null, fmt.Errorf("datum: division by zero")
		}
		return NewFloat(a.Float() / bf), nil
	}
	return Null, typeErr("/", a, b)
}

// Mod returns a % b for integers.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.typ == TInt && b.typ == TInt {
		if b.asInt() == 0 {
			return Null, fmt.Errorf("datum: division by zero")
		}
		return NewInt(a.asInt() % b.asInt()), nil
	}
	return Null, typeErr("%", a, b)
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	if a.IsNull() {
		return Null, nil
	}
	switch a.typ {
	case TInt:
		return NewInt(-a.asInt()), nil
	case TFloat:
		return NewFloat(-a.asFloat()), nil
	}
	return Null, fmt.Errorf("datum: cannot negate %s", TypeName(a.typ))
}

func isNumeric(v Value) bool { return v.typ == TInt || v.typ == TFloat }

func typeErr(op string, a, b Value) error {
	return fmt.Errorf("datum: invalid operands to %s: %s, %s", op, TypeName(a.typ), TypeName(b.typ))
}

// Tristate is SQL three-valued logic, used when evaluating predicates:
// qualifier edges in QGM evaluate to TRUE, FALSE or UNKNOWN.
type Tristate int8

// Three-valued logic constants.
const (
	False   Tristate = 0
	True    Tristate = 1
	Unknown Tristate = 2
)

// And implements Kleene AND.
func (t Tristate) And(o Tristate) Tristate {
	switch {
	case t == False || o == False:
		return False
	case t == True && o == True:
		return True
	}
	return Unknown
}

// Or implements Kleene OR.
func (t Tristate) Or(o Tristate) Tristate {
	switch {
	case t == True || o == True:
		return True
	case t == False && o == False:
		return False
	}
	return Unknown
}

// Not implements Kleene NOT.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// IsTrue collapses UNKNOWN to false, as a WHERE clause does.
func (t Tristate) IsTrue() bool { return t == True }

// Datum converts a Tristate to a BOOL datum (UNKNOWN becomes NULL).
func (t Tristate) Datum() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	}
	return Null
}

// TristateOf converts a datum to a Tristate: NULL is UNKNOWN, BOOL maps
// directly; anything else is an error at a higher level, treated here as
// UNKNOWN.
func TristateOf(v Value) Tristate {
	if v.IsNull() {
		return Unknown
	}
	if v.typ == TBool {
		if v.asBool() {
			return True
		}
		return False
	}
	return Unknown
}

func (t Tristate) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	}
	return "UNKNOWN"
}
