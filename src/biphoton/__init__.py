"""Double-lambda SFWM biphoton source: simulation, observables, fitting."""

__version__ = "0.1.0"
