"""The names of the verification suites and of the faults they can inject.

``checks`` runs them and ``cli`` offers them as choices; keeping the names
here lets the parser be built without importing the check suite.
"""

SUITES = ("euclidean", "lorentzian", "all")

# The only supported fault injection: flip one sign in the H core used by
# the triality-cycling check.
FAULT_H_SIGN = "h-sign"
FAULT_NAMES = (FAULT_H_SIGN,)
