// Seeded throwing-conversion violations: std::sto* throws on malformed or
// out-of-range text. The member call and the other namespace's function at
// the bottom must stay clean.
#include <string>

struct Reader {
  long stol(const std::string& s);
};

namespace other {
int stoi(const std::string& s);
}

double Convert(const std::string& text, Reader* r) {
  long long a = std::stoll(text);  // violation
  int b = std::stoi(text);         // violation
  double c = std::stod(text);      // violation
  long d = r->stol(text);          // member call: fine
  int e = other::stoi(text);       // another namespace: fine
  return static_cast<double>(a + b + d + e) + c;
}
