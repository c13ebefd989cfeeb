from .cli import console_main

raise SystemExit(console_main())
