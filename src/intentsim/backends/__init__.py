"""Decision backends: deterministic scripted policies and a chat-model client."""
